#ifndef MINOS_RUNTIME_TASK_POOL_H_
#define MINOS_RUNTIME_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "minos/obs/trace.h"
#include "minos/util/clock.h"

namespace minos::runtime {

/// A work-stealing task pool driven by deterministic virtual time.
///
/// The MINOS simulation charges every cost to one SimClock, so
/// "parallel" work (shard scatters, prefetch staging, partition scoring)
/// is modeled: every share runs in its own clock frame, and the clock
/// then advances by the slowest share. This pool is the one place that
/// rule lives; with workers, the task bodies — decode, render, CRC, BM25
/// arithmetic — actually occupy multiple hardware cores.
///
/// ## Epochs
///
/// RunEpoch(tasks) submits one batch. Each task runs inside a private
/// SimClock::Frame starting at the epoch's base time, so concurrent
/// tasks each see an isolated virtual timeline; the base clock is
/// frozen until every task finishes. At the barrier the pool advances
/// the base clock by the maximum frame cost (the scatter semantics:
/// overlapping work costs the slowest branch), commits each task's
/// trace sink in task order, and returns the per-task virtual costs.
///
/// ## Determinism
///
/// With the same inputs, any worker count produces bit-identical
/// results: task decomposition is the caller's (worker-independent),
/// virtual costs come from per-task frames (schedule-independent), trace
/// ids and span order are assigned at the barrier in task order, and the
/// clock advance is a pure max. Which worker ran a task and the wall
/// time it took are the only schedule-dependent facts, and neither
/// reaches a metrics registry, so BENCH snapshots stay byte-identical
/// across worker counts.
///
/// Tasks must not touch the shared ambient tracer stack, and shared
/// mutable structures they reach (caches, indexes, registries) must be
/// thread-safe; see DESIGN.md §14 for the full contract.
///
/// ## Exceptions
///
/// A throwing task does not abort the epoch: every task still runs, the
/// clock still advances, sinks still commit — then the lowest-index
/// task's exception is rethrown, so failure handling is deterministic
/// too.
///
/// A task that itself calls RunEpoch (e.g. partitioned scoring inside a
/// shard scatter) runs the nested epoch inline on its own frame —
/// serially, with identical virtual-time math — so composition can
/// never deadlock the worker set.
///
/// ## Zero workers and one-task epochs
///
/// A zero-worker pool starts no thread: every epoch runs inline on the
/// caller, like a nested one. Its tasks are not pool tasks (InTask()
/// stays false) and their spans go straight to the tracer, with no
/// sinks. Components that fan out keep one as their default, so there
/// is one fan-out path with or without workers. On a pool with workers,
/// a one-task epoch runs on the submitter exactly as a worker would run
/// it, which saves the handoff.
class TaskPool {
 public:
  using Task = std::function<void()>;

  /// `clock` borrowed, required. `workers` real threads are spawned
  /// immediately and parked until the first epoch; 0 (or less) spawns
  /// none and runs every epoch inline on the caller.
  explicit TaskPool(SimClock* clock, int workers = 1);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Attaches the tracer whose spans epoch tasks record (borrowed; null
  /// detaches). On a pool with workers each task then buffers spans into
  /// a private sink that commits at the barrier — required for
  /// deterministic trace output when tasks start spans.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Runs `tasks` as one epoch and returns each task's virtual cost, in
  /// task order. Blocks until every task has finished and the barrier
  /// has advanced the clock. Reentrant calls from inside a task run
  /// inline (see class comment).
  std::vector<Micros> RunEpoch(std::vector<Task> tasks);

  /// True on a thread currently executing a pool task (any pool). Used
  /// by components whose shared-state maintenance must stay on the
  /// submitting thread (e.g. the router's routing-table refresh).
  static bool InTask() { return t_in_task_; }

  /// Execution-layer statistics, never written into a MetricsRegistry.
  uint64_t epochs_run() const {
    return epochs_run_.load(std::memory_order_relaxed);
  }
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

 private:
  /// One in-flight epoch. Heap-allocated and shared: a worker that lost
  /// the race for the last task may still probe `remaining` after the
  /// submitter has moved on, so the control block outlives the barrier.
  struct Epoch {
    uint64_t generation = 0;                ///< Tags its queued indexes.
    std::vector<Task>* tasks = nullptr;
    Micros base = 0;                        ///< Frame start time.
    std::vector<Micros>* costs = nullptr;   ///< Per-task virtual cost.
    std::vector<std::exception_ptr>* errors = nullptr;
    std::vector<obs::Tracer::TaskSink*>* sinks = nullptr;  ///< May be null.
    std::atomic<size_t> remaining{0};       ///< Tasks not yet finished.
  };

  /// One queued task: its index, tagged with its epoch's generation.
  struct QueuedTask {
    uint64_t generation = 0;
    size_t index = 0;
  };

  /// Per-worker deque of queued tasks; owner pops the front, thieves
  /// steal from the back.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<QueuedTask> tasks;
  };

  void WorkerLoop(size_t self);
  /// Claims one task index of epoch `generation`: own queue first, then
  /// round-robin victims. A worker still bound to a finished epoch can
  /// race the submitter of the next one; the tag keeps it from claiming
  /// (and running against the old task vector) an index of the new
  /// epoch. Every queued task belongs to the newest epoch, so a
  /// mismatched tag means this worker's epoch is over.
  bool ClaimTask(size_t self, uint64_t generation, size_t* index);
  /// Runs task `index` of `epoch` as a pool task: its own frame at the
  /// epoch base, its sink installed, InTask() true, any exception
  /// captured into its slot. Workers and one-task submitters share it.
  void RunTask(const Epoch& epoch, size_t index);
  /// Serial execution with identical semantics: nested RunEpoch calls
  /// and every epoch of a zero-worker pool.
  std::vector<Micros> RunInline(std::vector<Task>& tasks);
  void RethrowFirst(const std::vector<std::exception_ptr>& errors);

  SimClock* clock_;
  obs::Tracer* tracer_ = nullptr;

  std::mutex mu_;                  ///< Guards epoch_/generation_/stop_.
  std::condition_variable work_cv_;   ///< Workers wait for an epoch.
  std::condition_variable done_cv_;   ///< Submitter waits for the barrier.
  std::shared_ptr<Epoch> epoch_;   ///< Non-null while an epoch runs.
  uint64_t generation_ = 0;        ///< Bumped per epoch submission.
  bool stop_ = false;

  std::vector<WorkerQueue> queues_;  ///< One per worker, fixed size.
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> epochs_run_{0};
  std::atomic<uint64_t> tasks_run_{0};

  /// Set while the calling thread executes a pool task.
  inline static thread_local bool t_in_task_ = false;
};

}  // namespace minos::runtime

#endif  // MINOS_RUNTIME_TASK_POOL_H_
