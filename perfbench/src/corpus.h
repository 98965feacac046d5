#ifndef MINOS_PERFBENCH_CORPUS_H_
#define MINOS_PERFBENCH_CORPUS_H_

// Seeded input generators and the shard topology the workloads build.
// Everything here is a pure function of its arguments: the same seed
// yields byte-identical objects, so a workload's simulated metrics are
// a function of the seed alone.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "minos/image/image.h"
#include "minos/object/multimedia_object.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/link.h"
#include "minos/server/object_server.h"
#include "minos/server/shard_router.h"
#include "minos/storage/archiver.h"
#include "minos/storage/block_cache.h"
#include "minos/storage/block_device.h"
#include "minos/storage/version_store.h"
#include "minos/text/document.h"
#include "minos/util/random.h"
#include "minos/voice/synthesizer.h"

namespace perfbench {

/// The i-th word of the synthetic vocabulary ("kalo", "mirute", ...).
/// Distinct indexes give distinct, letter-only words.
std::string VocabWord(uint64_t index);

/// Index drawn with a skewed popularity over [0, vocab): low indexes are
/// common, the tail is rare (squared-uniform, as in the repository's
/// catalog-scale experiments).
uint64_t SkewedIndex(minos::Random& rng, uint64_t vocab);

/// A report of `paragraphs` paragraphs (a chapter every `chapter_every`)
/// whose sentences mix fixed domain words with seeded vocabulary words.
/// A non-empty `topic` word is written into the title.
minos::text::Document SeededReport(minos::Random& rng, int paragraphs,
                                   const std::string& topic = "",
                                   int chapter_every = 8);

/// A simulated x-ray bitmap; `salt` moves the bright finding.
minos::image::Image SeededBitmap(int width, int height, uint64_t salt);

/// A labeled map (graphics image) with voice-labeled stations.
minos::image::Image SeededMap(int width, int height, uint64_t salt);

/// A visual-mode object paginated at 48x12 with one page per text page
/// and a 96x72 bitmap on every `image_every`-th page. Archived.
minos::object::MultimediaObject PagedReport(minos::storage::ObjectId id,
                                            minos::Random& rng,
                                            int paragraphs, int image_every,
                                            const std::string& topic = "",
                                            int chapter_every = 8);

/// The audio-mode twin of `visual`'s text: synthesized voice, tagged
/// with the document's logical components. Archived.
minos::object::MultimediaObject AudioTwin(
    minos::storage::ObjectId id, const minos::text::Document& doc);

/// Speech for `text` (one paragraph), for voice appends.
minos::voice::VoiceTrack SpeakText(const std::string& text);

/// One shard's stack: device, block cache, archiver, versions, link and
/// object server, all on the fabric's clock.
struct ShardStack {
  ShardStack(minos::SimClock* clock, minos::storage::DeviceCostModel cost,
             uint64_t device_blocks, size_t cache_blocks);

  minos::storage::BlockDevice device;
  minos::storage::BlockCache cache;
  minos::storage::Archiver archiver;
  minos::storage::VersionStore versions;
  minos::server::Link link;
  minos::server::ObjectServer server;
};

/// A sharded archive: `shards` stacks behind a round-robin ShardRouter
/// with the given replication, and a task pool of `workers` threads
/// (none when `workers` is 0: every epoch then runs serially inline).
struct Fabric {
  Fabric(size_t shards, int replication,
         minos::storage::DeviceCostModel cost, uint64_t device_blocks,
         size_t cache_blocks, int workers);

  minos::SimClock clock;
  std::vector<std::unique_ptr<ShardStack>> stacks;
  std::unique_ptr<minos::server::ShardRouter> router;
  std::unique_ptr<minos::runtime::TaskPool> pool;  ///< May be null.
};

/// Device statistics summed over several devices.
struct DeviceTotals {
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  uint64_t seeks = 0;
  minos::Micros busy_us = 0;
  uint32_t block_size = 0;

  void Add(const minos::storage::BlockDevice& device);
  void Add(const DeviceTotals& other);
};

}  // namespace perfbench

#endif  // MINOS_PERFBENCH_CORPUS_H_
