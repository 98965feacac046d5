#ifndef MINOS_SERVER_SHARD_ROUTER_H_
#define MINOS_SERVER_SHARD_ROUTER_H_

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "minos/obs/metrics.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/object_server.h"
#include "minos/server/object_store.h"
#include "minos/server/repair.h"
#include "minos/util/clock.h"
#include "minos/util/statusor.h"

namespace minos::server {

/// Maps an ObjectId to its primary shard among `shard_count` shards.
/// Must be pure: the router calls it on every route and assumes the
/// answer never changes for a given (id, count) pair.
using ShardPlacement =
    std::function<size_t(storage::ObjectId id, size_t shard_count)>;

/// Default placement: Fibonacci multiplicative hash of the id. Spreads
/// consecutive ids across shards with no coordination.
ShardPlacement HashPlacement();

/// Contiguous-range placement: ids [0, ids_per_shard) on shard 0,
/// [ids_per_shard, 2*ids_per_shard) on shard 1, ... (overflow clamps to
/// the last shard). The pluggable alternative for workloads whose ids
/// carry locality (e.g. a filing system numbering folders densely).
ShardPlacement RangePlacement(uint64_t ids_per_shard);

struct ShardRouterOptions {
  /// Copies of every object, including the primary (clamped to the shard
  /// count). With replication 2 each object is stored on its primary
  /// shard and the next shard in ring order, so single-shard loss never
  /// loses descriptors.
  int replication = 2;
  /// Statistics registry (the process default when null).
  obs::MetricsRegistry* registry = nullptr;
};

/// Scatter/gather router over N ObjectServer shards — the sharded-archive
/// topology. Placement hashes each ObjectId to a primary shard; Store
/// replicates onto the next `replication - 1` shards in ring order.
///
/// ## Routing table and failover
///
/// Each shard's health is read off its Link's CircuitBreaker: an open
/// breaker is shard loss, a closed (or half-open, or open-but-cooled-down)
/// breaker is a routable shard. The table refreshes lazily before every
/// routing decision, so a breaker tripped by foreground traffic takes the
/// shard out of scatter sets immediately, and a cooled-down breaker gets
/// routed one probe (its Admit() half-open slot) to earn its way back.
/// Reads walk the replica ring: primary first, then successors, skipping
/// dead shards and failing over past retryable errors. When every replica
/// of an object is unreachable the read fails Unavailable and the
/// presentation layer degrades (thumbnail fallback, NoteDegraded) exactly
/// as for corrupt parts.
///
/// ## Scatter/gather time model
///
/// Shards answer queries in parallel in the modeled system, but all work
/// runs on one SimClock. Every scatter therefore runs one task-pool task
/// per shard, each in its own virtual-time frame, and the epoch barrier
/// advances the clock by the slowest shard's cost — the gather barrier.
/// QueryAll merges the per-shard id lists into one ascending,
/// deduplicated result (replicas report the same id).
///
/// Statistics live under "router.*": scatter_queries, failovers_total,
/// shards_lost_total, shards_healed_total, rebalances_total,
/// dropped_results_total, replica_store_errors_total and
/// degraded_stores_total counters; live_shards, under_replicated and
/// routing_epoch gauges; gather_us histogram. Ranked scatters add
/// "query.ranked_scatters" and the per-shard "query.merge_depth"
/// histogram. Each shard additionally keeps RED metrics —
/// "router.shard<k>.requests_total", ".errors_total" and the
/// ".duration_us" histogram — fed by every routed read and scatter
/// share, so per-shard rate / errors / duration read straight off the
/// registry.
class ShardRouter : public ObjectStore {
 public:
  /// All shard pointers borrowed, non-null, non-empty. Shards should be
  /// constructed with distinct Links (a shared Link would share one
  /// breaker, collapsing per-shard health into one signal).
  ShardRouter(std::vector<ObjectServer*> shards, SimClock* clock,
              ShardPlacement placement = HashPlacement(),
              ShardRouterOptions options = {});

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// ObjectStore ----------------------------------------------------------

  /// Stores onto every live shard of the id's replica chain. Succeeds
  /// when at least one copy lands (under-replication is not fatal);
  /// returns the first successful copy's address. A store that lands
  /// fewer copies than the replication target is *surfaced*, not
  /// silent: the id enters the under-replicated set (the
  /// "router.under_replicated" gauge), "router.degraded_stores_total"
  /// counts the event, and the degraded-store listener fires — so
  /// anti-entropy repair (and tests) can see the redundancy debt.
  StatusOr<storage::ArchiveAddress> Store(
      const object::MultimediaObject& obj) override;

  /// Appends content onto every live replica of `id` (see
  /// ObjectServer::Append). Succeeds when at least one replica takes
  /// the append, returning its new version; replicas that miss it lag
  /// a version and enter the under-replicated set for anti-entropy to
  /// catch up. The catalog-wide statistics index absorbs the append as
  /// a *delta* — the df/length changes of the new words, applied once
  /// per logical object ("router.stats_delta_applies_total") — never a
  /// full re-add ("router.stats_full_adds_total" stays flat), and
  /// catalog_version() bumps so ranked-result caches invalidate.
  StatusOr<uint32_t> Append(storage::ObjectId id,
                            const ObjectServer::AppendParts& parts);

  /// Scatters to every live shard, gathers, merges ascending, dedups.
  std::vector<storage::ObjectId> QueryAll(
      const std::vector<std::string>& words) const override;

  /// Ranked scatter/gather: every live shard evaluates the top-k over
  /// its own postings against the router's catalog-wide statistics (so
  /// replicas score identically), the clock advances by the slowest
  /// shard, and the per-shard lists k-way merge by score — replica
  /// duplicates keep the max-score copy, ties break by ascending id.
  /// Identical to a single server's QueryRanked when all shards live.
  std::vector<query::ScoredHit> QueryRanked(
      const std::vector<std::string>& words, size_t k,
      query::QueryMode mode = query::QueryMode::kConjunctive,
      const obs::TraceContext& ctx = {}) const override;

  /// Refreshes liveness, then folds the routing epoch into the catalog
  /// version: a shard lost or healed changes which postings a ranked
  /// scatter can reach, so it invalidates ranked strips like a Store.
  uint64_t catalog_version() const override;

  /// The catalog-wide stats-only index every shard scores against
  /// (exposed read-only so tests can assert delta-sync exactness).
  const query::ScoredIndex& corpus_stats() const { return corpus_stats_; }

  StatusOr<MiniatureCard> FetchMiniature(
      storage::ObjectId id, int thumb_width = 96,
      const obs::TraceContext& ctx = {}) override;

  /// Scatter/gather card fetch: partitions `ids` by first live replica,
  /// builds each shard's share as one pool task (the clock advances by
  /// the slowest shard), fails over serially the ids whose shard died
  /// mid-gather, and returns the cards in the order of `ids`. Cards whose
  /// every replica is unreachable are dropped from the strip (counted
  /// dropped_results_total) — a degraded but non-empty answer beats no
  /// answer.
  std::vector<MiniatureCard> GatherCards(
      const std::vector<storage::ObjectId>& ids,
      const obs::TraceContext& ctx = {}) override;

  StatusOr<object::MultimediaObject> Fetch(
      storage::ObjectId id,
      FetchGranularity granularity = FetchGranularity::kWhole,
      const obs::TraceContext& ctx = {}) override;

  StatusOr<image::Bitmap> FetchImageRegion(
      storage::ObjectId id, uint32_t image_index, const image::Rect& r,
      const obs::TraceContext& ctx = {}) override;

  Status StagePartRange(storage::ObjectId id, std::string_view part_name,
                        uint64_t offset, uint64_t length,
                        const obs::TraceContext& ctx = {}) override;

  const RetryPolicy& retry_policy() const override;

  /// Forwards to every shard: a retry on any shard's fetch path spends
  /// its backoff in the same sleeper.
  void SetBackoffSleeper(BackoffSleeper sleeper) override;

  /// Attaches the request tracer to the router and every shard (and,
  /// through each shard, its link), so one tracer sees the whole fabric.
  void SetTracer(obs::Tracer* tracer) override;

  /// Attaches the task pool QueryRanked / QueryAll / GatherCards run
  /// their one task per live shard on (borrowed; null restores the
  /// router's own zero-worker pool, which runs the shares inline). With
  /// workers the shares run on real cores and, while a router task runs,
  /// the routing table is pinned: liveness refreshes and failover
  /// demotions are deferred to the submitting thread, so every share of
  /// one scatter routes against one table. The caller's pointer, null
  /// included, is forwarded to every shard (partitioned scoring).
  void SetTaskPool(runtime::TaskPool* pool) override;

  /// Prefetch staging affinity: 1 + the first live replica shard of
  /// `id`, or 0 when no live replica serves it (the prefetcher then
  /// serializes conservatively). Shares of distinct shards may stage
  /// concurrently; entries behind one shard contend for one arm and
  /// must not.
  uint64_t PrefetchAffinity(storage::ObjectId id) const override;

  /// The first live replica's link; null when the whole chain is down.
  Link* RouteLink(storage::ObjectId id) const override;

  /// Every shard's link, in shard order (null links omitted).
  std::vector<Link*> links() const override;

  /// Self-healing ----------------------------------------------------------

  /// Degraded-store event: a Store landed only `live_copies` of its
  /// replication target. Fired from Store, after the id entered the
  /// under-replicated set.
  using DegradedStoreListener =
      std::function<void(storage::ObjectId id, int live_copies)>;
  void SetDegradedStoreListener(DegradedStoreListener listener) {
    degraded_store_listener_ = std::move(listener);
  }

  /// Heal event: a shard's breaker heal (cooldown elapsed — the
  /// half-open readmission) put it back in the routing table. Fired
  /// from the lazy liveness refresh, so the listener MUST only flag
  /// work (the RepairManager marks a sync pending), never repair
  /// inline with the read that triggered the refresh.
  void SetHealListener(std::function<void(size_t shard)> listener) {
    heal_listener_ = std::move(listener);
  }

  /// Objects the router knows hold fewer than `replication` live
  /// up-to-date copies, mirrored by the "router.under_replicated"
  /// gauge. Stores add ids; each anti-entropy round replaces the set
  /// with what the digest exchange actually proved.
  const std::set<storage::ObjectId>& under_replicated() const {
    return under_replicated_;
  }

  /// Monotonic routing-table epoch: bumps whenever liveness crosses an
  /// edge or a shard-count change commits. Equal epochs observed at two
  /// points mean every routing decision between them used one table.
  uint64_t routing_epoch() const { return routing_epoch_; }

  /// Stages `shard` for a shard-count change. The placement modulus —
  /// and with it every replica chain, scatter set and routing decision
  /// — is unchanged until CommitExpansion(): the staged shard takes no
  /// traffic while the RepairManager streams its placement range over.
  /// Idempotent for an already-staged pointer. Returns the shard index.
  size_t AddShard(ObjectServer* shard);

  /// True while staged shards await CommitExpansion().
  bool expansion_staged() const { return active_count_ < shards_.size(); }

  /// Atomically flips the routing table to the expanded shard set: the
  /// placement modulus becomes the full shard count in one step (no
  /// reads ever see a half-migrated table) and the epoch bumps.
  /// Normally called through RepairManager::ExpandShards, which streams
  /// the data over first and fails closed on any gap.
  void CommitExpansion();

  /// Introspection --------------------------------------------------------

  /// Shards attached, including any staged for expansion.
  size_t shard_count() const { return shards_.size(); }

  /// Shards routing decisions currently consider (the placement
  /// modulus; excludes staged shards).
  size_t active_count() const { return active_count_; }

  /// Primary shard of an id under the current placement.
  size_t PrimaryOf(storage::ObjectId id) const {
    return placement_(id, active_count_);
  }

  /// Refreshes the routing table and reports shard liveness.
  bool IsLive(size_t shard) const;

  /// Live-shard count after a refresh (active shards only).
  size_t live_count() const;

 private:
  friend class RepairManager;

  /// Replica ring of an id: primary, then successors mod shard count,
  /// `replication` entries total (clamped to the shard count). The
  /// `Under` variant evaluates the ring as it would look with
  /// `shard_count` shards — the RepairManager uses it to plan a staged
  /// expansion's placement before the table flips.
  std::vector<size_t> ReplicaChain(storage::ObjectId id) const;
  std::vector<size_t> ReplicaChainUnder(storage::ObjectId id,
                                        size_t shard_count) const;

  /// Store-time under-replication bookkeeping + event fan-out.
  void NoteUnderReplicated(storage::ObjectId id, int live_copies);

  /// Installs the set anti-entropy proved (RepairManager, post-sync).
  void ReplaceUnderReplicated(std::set<storage::ObjectId> remaining);

  /// Re-derives liveness from breaker state; counts losses, heals and
  /// rebalances as edges are crossed.
  void RefreshLiveness() const;

  /// Walks the id's replica chain calling `op(shard)` on each live
  /// shard until one answers; retryable failures mark the shard lost
  /// and fail over to the next replica. Unavailable when the chain is
  /// exhausted; non-retryable errors (NotFound, Corruption the server
  /// could not salvage, ...) return as-is — another replica would only
  /// repeat them.
  /// `op` receives the per-attempt trace context (the "router.attempt"
  /// span when tracing is live), so the shard's own spans nest under the
  /// attempt that invoked them. Every attempt feeds the attempted
  /// shard's RED metrics.
  template <typename T>
  StatusOr<T> RouteRead(
      storage::ObjectId id,
      const std::function<StatusOr<T>(ObjectServer*,
                                      const obs::TraceContext&)>& op,
      const obs::TraceContext& ctx = {}) const;

  std::vector<ObjectServer*> shards_;
  SimClock* clock_;
  ShardPlacement placement_;
  ShardRouterOptions options_;
  obs::MetricsRegistry* reg_;  // Resolved in the ctor; never null.
  /// Placement modulus: shards_[active_count_..) are staged, invisible
  /// to routing until CommitExpansion().
  size_t active_count_;
  /// Bumped on liveness edges and expansion commits (mutable: the lazy
  /// liveness refresh crosses edges during reads).
  mutable uint64_t routing_epoch_ = 1;
  std::set<storage::ObjectId> under_replicated_;
  DegradedStoreListener degraded_store_listener_;
  std::function<void(size_t shard)> heal_listener_;
  /// Catalog-wide BM25 statistics (each object counted once, not per
  /// replica), handed to every shard so scatter scores agree globally.
  query::ScoredIndex corpus_stats_{/*stats_only=*/true};
  uint64_t catalog_version_ = 0;
  /// Routing table, re-derived lazily from breaker state (mutable: reads
  /// refresh it).
  mutable std::vector<bool> live_;

  obs::Tracer* tracer_ = nullptr;  // Borrowed; may be null.
  runtime::TaskPool inline_pool_;  // Zero workers: scatters inline.
  runtime::TaskPool* pool_ = &inline_pool_;  // Borrowed, or inline_pool_.

  /// Per-shard RED metrics (rate / errors / duration), registry-owned.
  struct ShardRed {
    obs::Counter* requests;
    obs::Counter* errors;
    obs::Histogram* duration_us;
  };
  std::vector<ShardRed> red_;

  obs::Counter* scatter_queries_;   // Owned by the registry.
  obs::Counter* ranked_scatters_;
  obs::Histogram* merge_depth_;     // Hits merged per live shard.
  obs::Counter* failovers_;
  obs::Counter* shards_lost_;
  obs::Counter* shards_healed_;
  obs::Counter* rebalances_;
  obs::Counter* dropped_results_;
  obs::Counter* replica_store_errors_;
  obs::Counter* degraded_stores_;
  obs::Counter* stats_full_adds_;      // corpus_stats_ full re-adds (Store).
  obs::Counter* stats_delta_applies_;  // corpus_stats_ delta syncs (Append).
  obs::Gauge* live_shards_;
  obs::Gauge* under_replicated_g_;
  obs::Gauge* epoch_g_;
  obs::Histogram* gather_us_;
};

}  // namespace minos::server

#endif  // MINOS_SERVER_SHARD_ROUTER_H_
