#ifndef MINOS_SESSION_SESSION_MANAGER_H_
#define MINOS_SESSION_SESSION_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "minos/obs/metrics.h"
#include "minos/obs/trace.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/object_store.h"
#include "minos/server/page_plan.h"
#include "minos/server/prefetch.h"
#include "minos/util/clock.h"
#include "minos/util/statusor.h"

namespace minos::session {

using SessionId = uint64_t;

/// Where one session is in its lifecycle. MINOS's presentation manager
/// (§5) binds one workstation to one user; the SessionManager multiplexes
/// thousands of such users over one shard fabric, so each gets an
/// explicit state machine instead of a dedicated Workstation:
///
///   kQueued --admit--> kIdle --search--> kSearching --> kBrowsing
///                        |                                  |
///                        +---------- open object -----------+
///                                        |
///                                     kReading  (page turns / jumps)
///                                        |
///                          close / idle-reap --> kClosed
enum class SessionState : uint8_t {
  kQueued = 0,     ///< Waiting for an admission slot.
  kIdle = 1,       ///< Admitted, no activity yet.
  kSearching = 2,  ///< A ranked query is in flight.
  kBrowsing = 3,   ///< Holding a result strip, nothing open.
  kReading = 4,    ///< An object is open; page events apply.
  kClosed = 5,     ///< Terminal (explicit close or idle reap).
};

/// One user action submitted to a PumpEpoch batch.
struct SessionEvent {
  enum class Kind : uint8_t {
    kSearch = 0,    ///< Ranked content query (`words`).
    kOpen = 1,      ///< Open `object` and deliver its first page.
    kPageTurn = 2,  ///< Move the cursor by `delta` pages.
    kJump = 3,      ///< Move the cursor to absolute `page`.
    kAppend = 4,    ///< Append `append_text` to `object` (writer flow).
    kClose = 5,     ///< End the session.
  };

  SessionId session = 0;
  Kind kind = Kind::kPageTurn;
  std::vector<std::string> words;  ///< kSearch.
  storage::ObjectId object = 0;    ///< kOpen / kAppend.
  int delta = 1;                   ///< kPageTurn.
  int page = 0;                    ///< kJump (1-based).
  std::string append_text;         ///< kAppend.
};

/// Per-event result of one PumpEpoch.
struct SessionOutcome {
  SessionId session = 0;
  SessionEvent::Kind kind = SessionEvent::Kind::kPageTurn;
  Status status = Status::OK();
  /// What the user waited for this event: prefetch residual plus any
  /// foreground staging time, including queueing behind earlier events
  /// bound for the same shard this epoch.
  Micros latency_us = 0;
  bool prefetch_hit = false;  ///< Page came out of the prefetch queue.
  size_t results = 0;         ///< Hit count (kSearch only).
};

/// Tuning knobs.
struct SessionOptions {
  /// Admission cap: sessions beyond it queue FIFO (never dropped) and
  /// admit as slots free up (close or reap).
  size_t max_concurrent = 256;
  /// A session with no event for this long is reaped at the next epoch:
  /// leases released, speculation cancelled, state kClosed.
  Micros idle_deadline_us = SecondsToMicros(30);
  /// Per-session cap on speculative bytes outstanding in the prefetch
  /// queue. A skimmer that hits its budget simply stops speculating
  /// until entries are consumed or evicted — it cannot starve readers.
  uint64_t prefetch_budget_bytes = 256 * 1024;
  /// Link leases per affinity group (shard). An Open that finds its
  /// shard's pool exhausted is deferred (retry next epoch), so one
  /// shard's fan-in is bounded.
  int streams_per_shard = 16;
  /// Knobs for the shared prefetch queue the manager owns.
  server::PrefetchOptions prefetch;
  /// Statistics registry (the process default when null).
  obs::MetricsRegistry* registry = nullptr;
};

/// Event-driven front-end multiplexing thousands of concurrent
/// browse/search sessions over one ObjectStore (pazpar2's event loop +
/// session-object idiom, on virtual time). Admission control, idle
/// reaping, per-shard link leases, a shared PrefetchQueue with
/// per-session budgets, and a learned per-session stride replacing the
/// fixed pages-ahead speculation.
///
/// ## Epoch model
///
/// Events arrive in batches (PumpEpoch). Each epoch runs three phases:
///
///  1. Serial pre-pass, in submission order: reap idle sessions, admit
///     queued ones into freed slots, update cursors and learned strides,
///     and consume prefetched pages (each event's residual wait measured
///     in a private clock frame, so concurrent waits overlap).
///  2. Staging: events that missed prefetch stage their page bytes in
///     the foreground, grouped by shard affinity — groups run as one
///     TaskPool epoch, so different shards overlap while one shard's
///     arm serializes. Searches, appends and closes run serially in a
///     "front-end" frame.
///  3. Serial post-pass, in submission order: book per-event latency,
///     finish event spans at their virtual completion time, schedule
///     new speculation within each session's budget, and pump the
///     prefetch queue once.
///
/// Phase membership and every latency are pure functions of the event
/// order, so a storm of thousands of sessions is bit-identical at any
/// --workers count.
///
/// ## Tracing
///
/// Each admitted session roots one span (`session#<id>`), subject to the
/// tracer's SetSampleRate; every event of a sampled session is a child
/// span and its fabric work (staging, query scatter) hangs below that.
/// Sampled-out sessions record nothing.
class SessionManager {
 public:
  /// Writer-flow hook: the manager is store-topology-blind, so appends
  /// are delegated (a bench wires ShardRouter::Append here). Returns the
  /// status of the append.
  using AppendHandler =
      std::function<Status(storage::ObjectId, const std::string& text)>;

  /// `store` and `clock` are borrowed and must outlive the manager.
  SessionManager(server::ObjectStore* store, SimClock* clock,
                 SessionOptions options = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Attaches the tracer (borrowed; null detaches) to the manager and
  /// the store underneath, so one session is one connected span tree.
  void SetTracer(obs::Tracer* tracer);

  /// Attaches a task pool (borrowed) to the manager, the store and the
  /// prefetch queue. Null restores each one's default: the manager's
  /// and the queue's own zero-worker pools, which run every epoch
  /// inline, and whatever the store does without a pool.
  void SetTaskPool(runtime::TaskPool* pool);

  void SetAppendHandler(AppendHandler handler);

  /// Registers a session under `profile` (a free-form class label:
  /// "reader", "skimmer", ... — per-class latency histograms key on it).
  /// Admits immediately when a slot is free, else queues FIFO.
  SessionId Open(std::string profile);

  /// Runs one batch of events; outcome i corresponds to events[i].
  /// Idle sessions are reaped and queued sessions admitted first.
  std::vector<SessionOutcome> PumpEpoch(
      const std::vector<SessionEvent>& events);

  /// Introspection -------------------------------------------------------

  SessionState state(SessionId id) const;
  size_t active_count() const { return active_count_; }
  size_t queued_count() const;
  /// The learned stride (pages per turn) speculation uses for `id`.
  int stride(SessionId id) const;
  /// Whether the session's trace root was sampled in.
  bool sampled(SessionId id) const;
  /// Current page / page count of the session's open object (0 = none).
  int page(SessionId id) const;
  int page_count(SessionId id) const;
  /// Live link leases held against affinity group `affinity`.
  int lease_count(uint64_t affinity) const;
  /// The shared prefetch queue (owned by the manager).
  server::PrefetchQueue* prefetch() { return queue_.get(); }
  /// Total admitted-to-closed lifetime of sampled (traced) sessions —
  /// the measured_us a bench reconciles the trace snapshot against.
  Micros traced_active_us() const { return traced_active_us_; }

 private:
  /// The page plan of one object, built from its skeleton descriptor and
  /// shared by every session reading it (each keeps its own
  /// delivered-page set). Immutable, so staging tasks and speculative
  /// work read it without the cache lock.
  using PlanRef = std::shared_ptr<const server::PagePlan>;

  struct Session {
    SessionId id = 0;
    std::string profile;
    SessionState state = SessionState::kQueued;
    Micros last_activity = 0;
    Micros admitted_at = 0;
    storage::ObjectId object = 0;  ///< Open object (0 = none).
    int page = 0;                  ///< 1-based cursor.
    int page_count = 0;
    PlanRef plan;                   ///< Plan delivered against (null: none).
    std::set<int> delivered;        ///< Pages of `object` at the terminal.
    double stride_ewma = 1.0;       ///< Learned pages-per-turn.
    std::set<uint64_t> leases;      ///< Affinity groups leased.
    obs::TraceContext root_ctx;     ///< Invalid when sampled out.
    std::optional<obs::TraceSpan> root;
  };

  Session* Find(SessionId id);
  const Session* Find(SessionId id) const;

  /// Moves a session into the active set: slot accounting, root span
  /// (sampled), admission metrics.
  void Admit(Session& s);
  /// Admits queued sessions while slots are free.
  void AdmitFromQueue(Micros now);
  /// Reaps every active session idle past the deadline.
  void ReapIdle(Micros now);
  /// Terminal teardown: releases leases, cancels speculation, ends the
  /// root span at the clock's current (frame-aware) time.
  void CloseSession(Session& s, bool reaped);

  bool AcquireLease(Session& s, uint64_t affinity);
  void ReleaseLeases(Session& s);

  /// The effective integer stride speculation uses.
  int EffectiveStride(const Session& s) const;
  void LearnStride(Session& s, int delta);

  /// The plan for `object` (fetching the skeleton to build it on first
  /// need). Thread-safe: tasks staging different shards race only on
  /// the cache map, which is mutex-guarded.
  StatusOr<PlanRef> EnsurePlan(storage::ObjectId object,
                               const obs::TraceContext& ctx);
  /// Append invalidation, in one serial step: drops the plan, cancels
  /// every staged entry of `object` (whoever owns it) and resets the
  /// delivery bookkeeping of every session reading it.
  void InvalidateObject(storage::ObjectId object);

  /// Foreground-stages page `page` of the session's object, adopting
  /// the current plan (a new one restarts the delivered-page set).
  Status StagePage(Session& s, int page, const obs::TraceContext& ctx);
  /// Stages visual page `page` of `object` by `plan` through the
  /// archiver, then moves its bytes over the routed link in one
  /// transfer. The foreground and speculative paths share it.
  Status DeliverPage(storage::ObjectId object, const server::PagePlan& plan,
                     int page, const obs::TraceContext& ctx);

  /// Schedules up to kSpeculateDepth pages ahead at the learned stride,
  /// within the session's prefetch budget.
  void Speculate(Session& s);

  obs::Histogram* ProfileTurnHistogram(const std::string& profile);

  server::ObjectStore* store_;
  SimClock* clock_;
  SessionOptions options_;
  obs::MetricsRegistry* registry_;
  runtime::TaskPool inline_pool_;            ///< Zero workers.
  runtime::TaskPool* pool_ = &inline_pool_;  ///< Borrowed, or inline.
  obs::Tracer* tracer_ = nullptr;
  AppendHandler append_;
  std::unique_ptr<server::PrefetchQueue> queue_;

  SessionId next_id_ = 1;
  std::map<SessionId, Session> sessions_;
  std::deque<SessionId> admission_queue_;
  size_t active_count_ = 0;
  std::map<uint64_t, int> lease_use_;  ///< Affinity -> live leases.
  Micros traced_active_us_ = 0;

  /// Guards plans_: read and built from staging tasks.
  mutable std::mutex plans_mu_;
  std::map<storage::ObjectId, PlanRef> plans_;

  obs::Counter* opened_;  // Owned by the registry.
  obs::Counter* admitted_;
  obs::Counter* admission_queued_;
  obs::Counter* queue_admitted_;
  obs::Counter* closed_;
  obs::Counter* reaped_;
  obs::Counter* events_;
  obs::Counter* deferred_events_;
  obs::Counter* page_turns_;
  obs::Counter* opens_;
  obs::Counter* searches_;
  obs::Counter* appends_;
  obs::Counter* link_waits_;
  obs::Counter* budget_deferred_;
  obs::Counter* plan_invalidations_;
  obs::Gauge* active_gauge_;
  obs::Gauge* queued_gauge_;
  obs::Histogram* page_turn_us_;
  obs::Histogram* open_us_;
  obs::Histogram* search_us_;
  obs::Histogram* append_us_;
  std::map<std::string, obs::Histogram*> profile_turn_us_;
};

}  // namespace minos::session

#endif  // MINOS_SESSION_SESSION_MANAGER_H_
