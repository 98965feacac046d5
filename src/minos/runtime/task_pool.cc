#include "minos/runtime/task_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace minos::runtime {

TaskPool::TaskPool(SimClock* clock, int workers)
    : clock_(clock), queues_(static_cast<size_t>(std::max(workers, 0))) {
  const size_t n = queues_.size();
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::vector<Micros> TaskPool::RunEpoch(std::vector<Task> tasks) {
  if (tasks.empty()) return {};
  // A task submitting an epoch would deadlock waiting for workers that
  // are waiting for it, and a zero-worker pool has none: both run the
  // epoch inline on the caller's frame.
  if (t_in_task_ || workers_.empty()) return RunInline(tasks);

  const Micros base = clock_->Now();
  std::vector<Micros> costs(tasks.size(), 0);
  std::vector<std::exception_ptr> errors(tasks.size());

  // One private trace sink per task, created and committed on this
  // thread: span ids and storage order depend only on task order.
  std::vector<std::unique_ptr<obs::Tracer::TaskSink>> sink_storage;
  std::vector<obs::Tracer::TaskSink*> sinks;
  if (tracer_ != nullptr) {
    sink_storage.reserve(tasks.size());
    sinks.reserve(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      sink_storage.push_back(
          std::make_unique<obs::Tracer::TaskSink>(tracer_));
      sinks.push_back(sink_storage.back().get());
    }
  }

  auto epoch = std::make_shared<Epoch>();
  epoch->tasks = &tasks;
  epoch->base = base;
  epoch->costs = &costs;
  epoch->errors = &errors;
  epoch->sinks = tracer_ != nullptr ? &sinks : nullptr;
  epoch->remaining.store(tasks.size(), std::memory_order_relaxed);

  if (tasks.size() == 1) {
    // A worker would only add a wake-up and a barrier wait: run the
    // task here, exactly as a worker would.
    RunTask(*epoch, 0);
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch->generation = ++generation_;
      // Deterministic initial placement: task i starts on worker i % N.
      // Stealing redistributes the wall-clock work, never the results.
      for (size_t i = 0; i < tasks.size(); ++i) {
        WorkerQueue& q = queues_[i % queues_.size()];
        std::lock_guard<std::mutex> qlock(q.mu);
        q.tasks.push_back(QueuedTask{epoch->generation, i});
      }
      epoch_ = epoch;
    }
    work_cv_.notify_all();

    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return epoch->remaining.load(std::memory_order_acquire) == 0;
    });
    epoch_.reset();
  }

  // The barrier: fold the frame costs into the frozen base clock,
  // commit the trace sinks in task order, then surface the first error.
  clock_->AdvanceTo(base + *std::max_element(costs.begin(), costs.end()));
  if (tracer_ != nullptr) {
    for (obs::Tracer::TaskSink* sink : sinks) {
      tracer_->CommitTaskSink(*sink);
    }
  }
  epochs_run_.fetch_add(1, std::memory_order_relaxed);
  RethrowFirst(errors);
  return costs;
}

std::vector<Micros> TaskPool::RunInline(std::vector<Task>& tasks) {
  const Micros base = clock_->Now();
  std::vector<Micros> costs(tasks.size(), 0);
  std::vector<std::exception_ptr> errors(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    SimClock::Frame frame(clock_, base);
    try {
      tasks[i]();
    } catch (...) {
      errors[i] = std::current_exception();
    }
    costs[i] = frame.elapsed();
  }
  // Inside a task the "base clock" is the caller's own frame; AdvanceTo
  // is frame-aware, so the fold lands in the right timeline. Spans the
  // nested tasks started are already in the caller's sink, in order.
  clock_->AdvanceTo(base + *std::max_element(costs.begin(), costs.end()));
  epochs_run_.fetch_add(1, std::memory_order_relaxed);
  tasks_run_.fetch_add(tasks.size(), std::memory_order_relaxed);
  RethrowFirst(errors);
  return costs;
}

void TaskPool::RethrowFirst(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void TaskPool::RunTask(const Epoch& epoch, size_t index) {
  SimClock::Frame frame(clock_, epoch.base);
  obs::Tracer::TaskSinkScope sink_scope(
      epoch.sinks != nullptr ? (*epoch.sinks)[index] : nullptr);
  t_in_task_ = true;
  try {
    (*epoch.tasks)[index]();
  } catch (...) {
    (*epoch.errors)[index] = std::current_exception();
  }
  t_in_task_ = false;
  (*epoch.costs)[index] = frame.elapsed();
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
}

void TaskPool::WorkerLoop(size_t self) {
  uint64_t seen_generation = 0;
  while (true) {
    std::shared_ptr<Epoch> epoch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (epoch_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      epoch = epoch_;
    }
    size_t index;
    while (epoch->remaining.load(std::memory_order_acquire) != 0 &&
           ClaimTask(self, epoch->generation, &index)) {
      RunTask(*epoch, index);
      if (epoch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last task out wakes the submitter; take the lock so the wake
        // cannot slip between its predicate check and its wait.
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }
}

bool TaskPool::ClaimTask(size_t self, uint64_t generation, size_t* index) {
  const size_t n = queues_.size();
  {
    WorkerQueue& own = queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      if (own.tasks.front().generation != generation) return false;
      *index = own.tasks.front().index;
      own.tasks.pop_front();
      return true;
    }
  }
  for (size_t step = 1; step < n; ++step) {
    WorkerQueue& victim = queues_[(self + step) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      if (victim.tasks.back().generation != generation) return false;
      *index = victim.tasks.back().index;
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

}  // namespace minos::runtime
