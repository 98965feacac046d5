#ifndef MINOS_SERVER_OBJECT_STORE_H_
#define MINOS_SERVER_OBJECT_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "minos/image/bitmap.h"
#include "minos/obs/trace.h"
#include "minos/object/multimedia_object.h"
#include "minos/query/query_engine.h"
#include "minos/server/fault.h"
#include "minos/storage/archiver.h"
#include "minos/storage/version_store.h"
#include "minos/util/statusor.h"

namespace minos::server {

class Link;

/// A miniature card returned by content queries: "Miniatures of qualifying
/// objects may be returned to the user using a sequential browsing
/// interface ... They can for example contain a small bitmap of the first
/// visual page or an indication that an object is an audio mode object and
/// some voice segments which are played as the miniature passes through
/// the screen." (§5)
struct MiniatureCard {
  storage::ObjectId id = 0;
  bool audio_mode = false;
  image::Bitmap thumb;            ///< Small bitmap of the first visual page.
  std::string preview_transcript; ///< First spoken words (audio objects).
  uint64_t byte_size = 0;         ///< Transfer cost of this card.
  /// Relevance of the ranked hit the card stands for; 0 in an unranked
  /// strip. The workstation attaches it: GatherCards leaves it 0.
  double score = 0;
};

/// How much of an object one Fetch transfers over the link.
enum class FetchGranularity : uint8_t {
  /// Everything: descriptor plus every part payload (the classic
  /// whole-object fetch).
  kWhole = 0,
  /// Descriptor and structure only; the page-content payloads (image
  /// parts placed on visual pages, the text/voice streams the pages
  /// present: DeferredBytes in page_plan.h) are deferred to
  /// page-granular transfers driven by the browsing cursor, which a
  /// PagePlan built from the fetched descriptor lays out page by page.
  /// The object still materializes fully in memory — the granularity
  /// governs transfer-cost accounting, which is what the simulation
  /// measures.
  kSkeleton = 1,
};

/// The archive surface one workstation session talks to. Two
/// implementations: ObjectServer (one machine owns the whole catalog —
/// the classic MINOS topology) and ShardRouter (the catalog split across
/// N servers behind scatter/gather routing with replicated descriptors).
/// Every session-side driver — the presentation-manager resolver, the
/// prefetch pipeline, the benches — runs unchanged against either.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Archives an object and indexes its content for queries. Returns the
  /// archive address (the primary copy's, for replicated stores). A
  /// replicated store that lands fewer copies than its replication
  /// target still succeeds, but surfaces the deficit — the router's
  /// under-replicated set and "router.under_replicated" gauge — for
  /// anti-entropy repair (RepairManager) to converge later.
  virtual StatusOr<storage::ArchiveAddress> Store(
      const object::MultimediaObject& obj) = 0;

  /// Conjunctive content query: ids of objects matching all words, in
  /// ascending id order (sharded stores scatter the query and merge).
  /// The unranked path — QueryRanked is the relevance-ordered one.
  virtual std::vector<storage::ObjectId> QueryAll(
      const std::vector<std::string>& words) const = 0;

  /// Attaches the request tracer (borrowed; null detaches). Sharded
  /// stores forward it to every shard and its link, so one tracer sees
  /// the whole fabric. The trailing TraceContext parameter each
  /// retrieval method takes below is the propagated parent span:
  /// call sites that pass a valid context get their work recorded as
  /// children of their own span; the default (invalid) context records
  /// nothing.
  virtual void SetTracer(obs::Tracer* tracer) = 0;

  /// Attaches a task pool (borrowed) that parallel-capable stores use
  /// for their hot fan-outs — shard scatters, partitioned scoring. Null
  /// restores each store's default (a router scatters on its own
  /// zero-worker pool, a server scores the whole range in one pass), with
  /// identical results. The default is a no-op: a store without fan-outs
  /// has nothing to attach.
  virtual void SetTaskPool(runtime::TaskPool* pool) { (void)pool; }

  /// Stable grouping key for prefetch staging of `id`: entries with the
  /// same non-zero affinity contend for the same backing resource (for
  /// a sharded store, the shard that would serve the object) and must
  /// stage serially; different affinities may stage concurrently.
  /// 0 means unknown — the prefetcher then serializes conservatively.
  virtual uint64_t PrefetchAffinity(storage::ObjectId id) const {
    (void)id;
    return 0;
  }

  /// Ranked content query: the top `k` objects matching `words` with
  /// their BM25-style relevance scores, best first (ties break by
  /// ascending id). A sharded store scatters per-shard top-k requests,
  /// merges by score with replica dedup, and advances the clock by the
  /// slowest shard.
  virtual std::vector<query::ScoredHit> QueryRanked(
      const std::vector<std::string>& words, size_t k,
      query::QueryMode mode = query::QueryMode::kConjunctive,
      const obs::TraceContext& ctx = {}) const = 0;

  /// Monotonic stamp of everything a ranked answer depends on: bumped
  /// by every successful Store and Append and, for a sharded store, by
  /// every routing-table change (a shard lost or healed). The
  /// workstation's query-result cache stamps entries with it, so an
  /// insertion — or a shard coming back — invalidates every strip ranked
  /// before it.
  virtual uint64_t catalog_version() const = 0;

  /// Builds and transfers the miniature card of one object.
  virtual StatusOr<MiniatureCard> FetchMiniature(
      storage::ObjectId id, int thumb_width = 96,
      const obs::TraceContext& ctx = {}) = 0;

  /// Builds the miniature cards of `ids` (picked by QueryAll or
  /// QueryRanked), in the order given. A card that cannot be built is
  /// dropped from the strip — a partial, degraded answer beats no
  /// answer. A sharded store scatters the per-shard card work and
  /// overlaps it (the clock advances by the slowest shard, not the sum);
  /// a single server does it serially.
  virtual std::vector<MiniatureCard> GatherCards(
      const std::vector<storage::ObjectId>& ids,
      const obs::TraceContext& ctx = {}) = 0;

  /// Fetches an object (descriptor + composition) over the link.
  virtual StatusOr<object::MultimediaObject> Fetch(
      storage::ObjectId id,
      FetchGranularity granularity = FetchGranularity::kWhole,
      const obs::TraceContext& ctx = {}) = 0;

  /// Fetches only the covering region of a stored bitmap image part.
  virtual StatusOr<image::Bitmap> FetchImageRegion(
      storage::ObjectId id, uint32_t image_index, const image::Rect& r,
      const obs::TraceContext& ctx = {}) = 0;

  /// Reads `length` bytes at `offset` within part `part_name` through the
  /// owning archiver without charging the link: the caller owns the
  /// transfer accounting (a synchronous stall or a background prefetch).
  virtual Status StagePartRange(storage::ObjectId id,
                                std::string_view part_name, uint64_t offset,
                                uint64_t length,
                                const obs::TraceContext& ctx = {}) = 0;

  /// The retry schedule the store's fetch paths run under.
  virtual const RetryPolicy& retry_policy() const = 0;

  /// Installs the sleeper every fetch retry spends its backoff windows in
  /// (null restores plain clock advances).
  virtual void SetBackoffSleeper(BackoffSleeper sleeper) = 0;

  /// The link a fetch of `id` would travel right now (null when transfers
  /// are not charged, or no live route serves the object).
  virtual Link* RouteLink(storage::ObjectId id) const = 0;

  /// Every link this store may use. The prefetch pipeline spans its
  /// background scopes over all of them, so speculative failures on any
  /// shard stay off that shard's foreground breaker accounting.
  virtual std::vector<Link*> links() const = 0;
};

}  // namespace minos::server

#endif  // MINOS_SERVER_OBJECT_STORE_H_
