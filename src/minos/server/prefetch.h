#ifndef MINOS_SERVER_PREFETCH_H_
#define MINOS_SERVER_PREFETCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "minos/obs/metrics.h"
#include "minos/object/multimedia_object.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/fault.h"
#include "minos/server/link.h"
#include "minos/server/object_store.h"
#include "minos/util/clock.h"
#include "minos/util/statusor.h"

namespace minos::server {

/// What one speculative fetch targets.
enum class PrefetchKind : uint8_t {
  kMiniature = 0,   ///< A browsing card adjacent to the miniature cursor.
  kObject = 1,      ///< A whole object (skeleton) about to be opened.
  kVisualPage = 2,  ///< Deferred bytes of one visual page.
  kAudioPage = 3,   ///< Voice samples of one upcoming audio segment.
};

/// Identity of one prefetchable unit: pages and audio segments index
/// within their object; miniatures index by cursor position in the
/// result strip (object_id 0 — the strip, not any one object, is the
/// cursor's home); whole objects use index 0. `owner` names the session
/// (or other budget domain) speculating — 0 for single-session callers —
/// so two sessions staging the same page hold distinct entries and
/// per-owner budgets/cancellation have an identity to act on.
struct PrefetchKey {
  PrefetchKind kind = PrefetchKind::kVisualPage;
  uint64_t object_id = 0;
  int index = 0;
  uint64_t owner = 0;

  friend auto operator<=>(const PrefetchKey&, const PrefetchKey&) = default;
};

/// Tuning knobs for the pipeline.
struct PrefetchOptions {
  /// The Workstation's speculation radii (the queue itself never reads
  /// them; a SessionManager speculates at its learned stride instead).
  /// The defaults model a page-turn reader: a couple of pages ahead, one
  /// behind (back-turns are common), and the miniatures flanking the
  /// cursor. A jump keeps the pages within max(pages_ahead,
  /// pages_behind) of the new cursor, a strip jump the cards within
  /// miniature_radius.
  int pages_ahead = 2;
  int pages_behind = 1;
  int miniature_radius = 2;
  /// Background transfers issued per Pump call; bounds how much
  /// speculative work one idle window can start.
  int max_inflight_per_pump = 2;
  /// Completed-but-unconsumed entries kept before eviction starts
  /// (evictions count as wasted prefetch). The victim is the stalest
  /// ready entry of the owner holding the most ready bytes, so one
  /// greedy session sheds its own pages before touching anyone else's;
  /// with a single owner (all keys owner 0) this is exactly
  /// evict-global-stalest.
  size_t ready_capacity = 32;
  /// Longest residual background time a page or miniature consumer will
  /// wait on a partial hit. Beyond it the entry is dropped (wasted) and
  /// the caller does the cheap foreground transfer instead — speculation
  /// must never block the foreground behind a backed-up channel. Whole
  /// objects are exempt: their foreground refetch costs at least the
  /// residual, so waiting is always the better deal.
  Micros max_page_wait_us = 30'000;
  /// Statistics registry (the process default when null).
  obs::MetricsRegistry* registry = nullptr;
};

/// The asynchronous prefetch pipeline (tentpole of the continuous-browsing
/// story): the browsing cursor announces where it is, the queue
/// speculatively runs the transfers the user is about to need, and the
/// foreground path consumes them as cache hits. §6 of the paper overlaps
/// "the time that it takes for a user to browse through a page" with
/// fetching the next one; this class is that overlap, made measurable.
///
/// ## Time model
///
/// Everything runs on one SimClock, so a background transfer would
/// normally stall the foreground. Instead each pump stages its picks as
/// one task-pool epoch in which every work item measures its cost and
/// rewinds its frame to the start, so the epoch leaves the foreground
/// clock where it was; the cost is booked on a serialized background
/// channel: entry i is ready at `max(issue_time, channel_free_time) +
/// cost`. A consumer that arrives after `ready_at` gets a free hit; one
/// that arrives early waits only the residual (a partial hit). The
/// foreground clock only ever advances by time the user would genuinely
/// have waited.
///
/// ## Fault posture
///
/// Work runs under Link::BackgroundScope, so speculative failures never
/// trip the circuit breaker for the foreground path; an open breaker
/// still fast-fails prefetches (no point prefetching over a dead link).
/// Failed entries are dropped — the foreground retry machinery, not the
/// prefetcher, owns recovery.
///
/// ## Cost
///
/// The bookkeeping scales with the event, not with the number of live
/// entries: a pick, an issue, a consume, an eviction and each dropped
/// entry cost O(log n), a budget read and the counts O(1), and the
/// canned cancels walk only the entries they drop (plus, for OnJump, the
/// survivors of its one kind and object). Only CancelAll visits every
/// entry.
///
/// Statistics live under "prefetch.*": enqueued, issued, hits,
/// partial_hits, misses, wasted, cancelled, errors counters; wait_us and
/// issue_cost_us histograms; queue_depth gauge.
class PrefetchQueue {
 public:
  using PageWork = std::function<Status()>;
  using ObjectWork = std::function<StatusOr<object::MultimediaObject>()>;
  using CardWork = std::function<StatusOr<MiniatureCard>()>;

  /// `clock` borrowed, required. `link` borrowed, may be null (work then
  /// runs without a background scope).
  PrefetchQueue(SimClock* clock, Link* link, PrefetchOptions options = {});

  /// Multi-link form for sharded stores: speculative work enters a
  /// background scope on every link it might travel, so a prefetch that
  /// fails over between shards never trips a foreground breaker.
  PrefetchQueue(SimClock* clock, std::vector<Link*> links,
                PrefetchOptions options = {});

  /// Unconsumed ready entries die wasted.
  ~PrefetchQueue();

  PrefetchQueue(const PrefetchQueue&) = delete;
  PrefetchQueue& operator=(const PrefetchQueue&) = delete;

  /// Enqueue -------------------------------------------------------------

  /// Requests a page-granular staging transfer. `distance` is how many
  /// cursor steps away the target is (nearer issues first). Duplicate
  /// keys (already queued or ready) are ignored. `bytes` is the
  /// estimated payload size charged against key.owner's outstanding
  /// budget (0 = untracked).
  void WantPage(const PrefetchKey& key, int distance, PageWork work,
                uint64_t bytes = 0);

  /// Requests a whole-object fetch (e.g. the object under the miniature
  /// cursor, about to be opened).
  void WantObject(uint64_t object_id, int distance, ObjectWork work);

  /// Requests the miniature card at strip position `position`.
  /// `affinity_object` optionally names the object the card belongs to,
  /// so a pump with workers can group the work by the shard that will
  /// serve it (the key's object_id is always 0 — the strip owns the
  /// cursor).
  void WantMiniature(int position, int distance, CardWork work,
                     uint64_t affinity_object = 0);

  /// Consume -------------------------------------------------------------

  /// Claims a prefetched page. True on a hit (the staging transfer
  /// already ran; an early consumer waits only the residual background
  /// time, up to max_page_wait_us). False on a miss — the caller must do
  /// the foreground transfer. A queued-but-unissued entry is dropped and
  /// counts as a miss (the foreground fetch supersedes it); a ready entry
  /// whose residual exceeds the wait cap is dropped as wasted.
  bool TakePage(const PrefetchKey& key);

  /// Claims a prefetched object / miniature card; nullopt on miss.
  std::optional<object::MultimediaObject> TakeObject(uint64_t object_id);

  /// Claims the card staged at strip position `position`, but only if it
  /// is the card of `expected_id`: positions are relative to one query's
  /// strip, so a card staged for an earlier strip at the same position
  /// belongs to a different object. A mismatched card is dropped (wasted
  /// + miss) and the caller fetches in the foreground.
  std::optional<MiniatureCard> TakeMiniature(int position,
                                             uint64_t expected_id);

  /// Steer ---------------------------------------------------------------

  /// A cursor jumped (goto-page / random seek) to `cursor.index`. The
  /// entries of `cursor.owner` with `cursor.kind` for `cursor.object_id`
  /// lying more than `radius` away are dropped: queued ones count
  /// cancelled, ready ones count wasted. A stale ready page can
  /// therefore never be delivered after a jump — it no longer exists.
  /// Other owners' entries for the same object are untouched.
  void OnJump(const PrefetchKey& cursor, int radius);

  /// Drops every entry of `kind` (queued → cancelled, ready → wasted).
  /// A new Query must cancel kMiniature this way: positions in the old
  /// strip mean nothing in the new one.
  void Cancel(PrefetchKind kind);

  /// Drops every page/object entry of `object_id` (miniatures, whose
  /// object_id is always 0, are untouched). Re-opening an object resets
  /// its delivery plan, so entries staged for the previous open must not
  /// satisfy pages the fresh skeleton fetch discounted again.
  void CancelObject(uint64_t object_id);

  /// Drops every entry (queued → cancelled, ready → wasted). The
  /// workstation calls this when the session shuts down.
  void CancelAll();

  /// Drops every entry whose key.owner matches (queued → cancelled,
  /// ready → wasted). A reaped or closed session releases its whole
  /// speculative footprint this way.
  void CancelOwner(uint64_t owner);

  /// Issues up to max_inflight_per_pump queued entries, nearest cursor
  /// distance first. Reentrant calls (a pumped transfer's retry sleeper
  /// pumping again) are no-ops.
  void Pump();

  /// Maps an affinity-object id to the staging group it contends with
  /// (for a sharded store, 1 + the serving shard; 0 = unknown).
  using AffinityFn = std::function<uint64_t(uint64_t object_id)>;

  /// Attaches the task pool each pump stages its picks on, as one epoch
  /// (borrowed; null restores the queue's own zero-worker pool). With
  /// workers, entries of different affinity groups run concurrently on
  /// real cores, while entries of one group (one shard's arm) — and
  /// every entry when `affinity` is null or answers 0 — stay
  /// sequential. Without workers every pick runs inline, in pick order,
  /// and `affinity` is never called. Pick order, virtual-time booking on
  /// the background channel, and every prefetch.* metric are identical
  /// at any worker count.
  void SetTaskPool(runtime::TaskPool* pool, AffinityFn affinity = nullptr);

  /// A BackoffSleeper that spends retry backoff windows pumping this
  /// queue before advancing the clock — the ROADMAP's
  /// "scheduler-integrated retries": a foreground retry wait becomes
  /// background prefetch progress.
  BackoffSleeper MakeBackoffSleeper();

  /// Introspection --------------------------------------------------------

  size_t queued_count() const;
  size_t ready_count() const;
  /// Sum of `bytes` over every live (queued or ready) entry whose
  /// key.owner matches — the budget-enforcement view: a manager refuses
  /// new speculation for an owner once this crosses its budget.
  uint64_t OutstandingBytes(uint64_t owner) const;
  /// Simulated time at which the background channel frees up.
  Micros background_free_at() const { return bg_free_at_; }

 private:
  struct Entry {
    int distance = 0;
    uint64_t seq = 0;  ///< Enqueue order; unique, smaller is staler.
    bool ready = false;
    Micros ready_at = 0;
    uint64_t affinity_object = 0;  ///< Grouping hint for pump epochs.
    uint64_t bytes = 0;            ///< Budget charge for key.owner.
    PageWork run;  ///< Null once ready.
    /// Payloads of WantObject / WantMiniature entries, kept out of line
    /// so page entries (nearly all of them) stay small.
    std::unique_ptr<object::MultimediaObject> object;
    std::unique_ptr<MiniatureCard> card;
  };
  using EntryMap = std::map<PrefetchKey, Entry>;
  /// Map iterators stay valid until their own entry is erased, so the
  /// indexes below point straight at entries.
  using EntryRef = EntryMap::iterator;

  /// One owner's live entries; exists while the owner holds any.
  struct OwnerIndex {
    uint64_t live_bytes = 0;   ///< Queued + ready: OutstandingBytes.
    uint64_t ready_bytes = 0;  ///< Ready only: the eviction rank.
    /// Entries by seq, so ready.begin() is the owner's stalest.
    std::map<uint64_t, EntryRef> queued;
    std::map<uint64_t, EntryRef> ready;
  };

  /// Eviction order over owners holding ready entries: most ready bytes
  /// first, then the owner whose stalest ready entry is globally
  /// stalest. Seqs are unique, so no two owners tie.
  struct EvictRank {
    uint64_t ready_bytes = 0;
    uint64_t stalest_seq = 0;
    bool operator<(const EvictRank& other) const {
      if (ready_bytes != other.ready_bytes) {
        return ready_bytes > other.ready_bytes;
      }
      return stalest_seq < other.stalest_seq;
    }
  };

  /// Shared enqueue path: `affinity_object` is the grouping hint a
  /// pump with workers reads (pages use their own object id).
  void Enqueue(const PrefetchKey& key, int distance, PageWork work,
               uint64_t affinity_object, uint64_t bytes = 0);

  /// Turns a queued entry ready at `ready_at`.
  void MarkReady(EntryRef it, Micros ready_at);

  /// Removes an entry from the map and every index; returns the next
  /// entry. The only removal path, so the indexes never go stale.
  EntryRef Erase(EntryRef it);

  /// Erase for a steer or an eviction: a queued entry counts cancelled,
  /// a ready one wasted.
  EntryRef Drop(EntryRef it);

  /// Drops the entries of `kind` for `object_id` whose key `stale`
  /// accepts. Keys sort by kind, then object id, so these entries are
  /// one contiguous run of the map and nothing else is visited.
  void DropRun(PrefetchKind kind, uint64_t object_id,
               const std::function<bool(const PrefetchKey& key)>& stale);

  /// `owner`'s eviction rank; none while it holds no ready entry.
  static std::optional<EvictRank> RankOf(const OwnerIndex& owner);

  /// Moves owner `id` in the eviction order from rank `before` to its
  /// current rank, reusing the order's node.
  void Rerank(uint64_t id, const OwnerIndex& owner,
              const std::optional<EvictRank>& before);

  /// Stages `picked` (in pick order) as one pool epoch grouped by
  /// affinity, then books costs and outcomes serially in pick order.
  void Issue(const std::vector<EntryRef>& picked);

  /// Books one issued entry on the background channel: ready at
  /// max(channel free, start) + cost, or erased (counted an error) when
  /// its work failed — the failed attempt still held the channel.
  void Book(EntryRef it, Micros start, Micros cost, const Status& verdict);

  /// Sheds ready entries down to ready_capacity: victim owner is the
  /// one with the most ready bytes (ties broken toward the globally
  /// stalest entry), victim entry is that owner's stalest.
  void EvictOverCapacity();
  void UpdateDepth();

  SimClock* clock_;
  std::vector<Link*> links_;  ///< Borrowed; background scopes span all.
  PrefetchOptions options_;
  EntryMap entries_;
  /// Queued entries in pick order: (distance, seq).
  std::map<std::pair<int, uint64_t>, EntryRef> pick_order_;
  std::unordered_map<uint64_t, OwnerIndex> owners_;
  std::map<EvictRank, uint64_t> evict_order_;  ///< Rank → owner.
  uint64_t next_seq_ = 0;
  Micros bg_free_at_ = 0;  ///< Background channel horizon.
  bool pumping_ = false;   ///< Reentrancy guard.
  runtime::TaskPool inline_pool_;            ///< Zero workers.
  runtime::TaskPool* pool_ = &inline_pool_;  ///< Borrowed, or inline.
  AffinityFn affinity_;                      ///< Null: one group per pump.

  obs::Counter* enqueued_;  // Owned by the registry.
  obs::Counter* issued_;
  obs::Counter* hits_;
  obs::Counter* partial_hits_;
  obs::Counter* misses_;
  obs::Counter* wasted_;
  obs::Counter* cancelled_;
  obs::Counter* errors_;
  obs::Histogram* wait_us_;
  obs::Histogram* issue_cost_us_;
  obs::Gauge* queue_depth_;
};

}  // namespace minos::server

#endif  // MINOS_SERVER_PREFETCH_H_
