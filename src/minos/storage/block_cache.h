#ifndef MINOS_STORAGE_BLOCK_CACHE_H_
#define MINOS_STORAGE_BLOCK_CACHE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "minos/obs/metrics.h"

namespace minos::storage {

/// LRU cache of device blocks, standing in for the magnetic-disk / main
/// memory caching layer of the MINOS server subsystem ("the subsystem
/// provides access methods, scheduling, cashing, version control", §5).
/// Keys are (device-local) block numbers; values are block payloads.
///
/// The cache is thread-safe: concurrent pool tasks (shard scatters,
/// prefetch staging) may hit one cache at once. Internally it is split
/// into `stripes` independently locked LRU shards keyed by block
/// number. The default single stripe preserves the exact global LRU
/// recency order of the original cache; more stripes trade that for
/// less lock contention. Block-to-stripe placement is a pure function
/// of the block number, so hit/miss/eviction totals are deterministic
/// for a given stripe count regardless of thread interleaving.
///
/// Each stripe keeps its blocks in reusable frames, in the style of a
/// database buffer pool: a frame is created the first time the stripe
/// holds that many blocks and is then recycled, payload buffer and map
/// node included, so a full cache inserts and evicts without allocating.
/// Frames link into the stripe's LRU list by index.
///
/// Hit/miss/eviction counters live in a MetricsRegistry under a unique
/// instance scope ("block_cache0.hits", ...); the accessors below are
/// thin views over those registry counters.
class BlockCache {
 public:
  /// Creates a cache holding at most `capacity_blocks` blocks, divided
  /// evenly over `stripes` (>= 1) independently locked LRU shards.
  /// Capacity 0 disables caching (every lookup misses).
  /// Statistics register in `registry` (the process default when null).
  explicit BlockCache(size_t capacity_blocks,
                      obs::MetricsRegistry* registry = nullptr,
                      size_t stripes = 1);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Looks up a block; on hit copies the payload into `out`, refreshes
  /// recency and returns true.
  bool Lookup(uint64_t block, std::string* out);

  /// Lookup that appends only the payload bytes [pos, pos + n) (clamped
  /// to the payload's end; `pos` must not pass it) to `out`, straight
  /// from the frame. Counts the hit or miss and refreshes recency as
  /// Lookup does.
  bool AppendSlice(uint64_t block, size_t pos, size_t n, std::string* out);

  /// Inserts (or refreshes) a block, evicting the least recently used
  /// entries as needed.
  void Insert(uint64_t block, std::string_view payload);

  /// Removes a block if present (used on rewrite of magnetic blocks).
  void Erase(uint64_t block);

  /// Drops everything.
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t stripes() const { return shards_.size(); }

  /// Hit/miss/eviction counters for the caching experiments (views over
  /// the registry-backed counters).
  uint64_t hits() const { return static_cast<uint64_t>(hits_->value()); }
  uint64_t misses() const {
    return static_cast<uint64_t>(misses_->value());
  }
  uint64_t evictions() const {
    return static_cast<uint64_t>(evictions_->value());
  }

  /// Fraction of lookups that hit (0 when no lookups yet).
  double HitRate() const;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// One cached block; `prev`/`next` index its stripe's frames.
  struct Frame {
    uint64_t block = 0;
    std::string payload;
    size_t prev = kNone;  // Toward the most recently used end.
    size_t next = kNone;  // Toward the least recently used end.
  };

  /// One independently locked LRU shard.
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    /// At most `capacity` frames; Clear alone releases them.
    std::vector<Frame> frames;
    /// Frames an Erase released, reused before new ones are made.
    std::vector<size_t> spare;
    /// Block -> index of the frame holding it.
    std::unordered_map<uint64_t, size_t> map;
    size_t head = kNone;  // Most recently used frame.
    size_t tail = kNone;  // Least recently used frame.

    void Unlink(size_t f);
    void PushFront(size_t f);
    void MoveToFront(size_t f);
  };

  Shard& ShardFor(uint64_t block) {
    return shards_[block % shards_.size()];
  }

  /// Counts a hit or miss for `block` in `s` (whose lock the caller
  /// holds); on a hit moves its frame to the front and returns it.
  const Frame* Touch(Shard& s, uint64_t block);

  size_t capacity_;
  std::vector<Shard> shards_;
  obs::Counter* hits_;       // Owned by the registry.
  obs::Counter* misses_;     // Owned by the registry.
  obs::Counter* evictions_;  // Owned by the registry.
};

}  // namespace minos::storage

#endif  // MINOS_STORAGE_BLOCK_CACHE_H_
