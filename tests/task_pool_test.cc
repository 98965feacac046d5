// Tests for the work-stealing virtual-time task pool: epoch clock
// algebra, worker-count determinism (the property the CI determinism
// matrix gates end-to-end), steal-heavy stress, exception propagation,
// and a TSan-targeted hammer on the shared structures pool tasks touch
// (striped BlockCache, MetricsRegistry, Tracer task sinks).

#include "minos/runtime/task_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "minos/obs/metrics.h"
#include "minos/obs/trace.h"
#include "minos/object/multimedia_object.h"
#include "minos/query/query_engine.h"
#include "minos/query/scored_index.h"
#include "minos/storage/block_cache.h"
#include "minos/text/markup.h"
#include "minos/util/clock.h"

namespace minos::runtime {
namespace {

TEST(TaskPoolTest, ParallelEpochAdvancesByMaxCost) {
  SimClock clock(1000);
  TaskPool pool(&clock, 3);
  std::vector<TaskPool::Task> tasks;
  for (Micros cost : {30, 70, 10}) {
    tasks.push_back([&clock, cost] { clock.Sleep(cost); });
  }
  const std::vector<Micros> costs = pool.RunEpoch(std::move(tasks));
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_EQ(costs[0], 30);
  EXPECT_EQ(costs[1], 70);
  EXPECT_EQ(costs[2], 10);
  EXPECT_EQ(clock.Now(), 1070);  // Base + the slowest branch.
}

TEST(TaskPoolTest, TaskFramesIsolateAndRewindsClampToFrameStart) {
  SimClock clock(500);
  TaskPool pool(&clock, 2);
  std::vector<TaskPool::Task> tasks;
  std::vector<Micros> observed(2, 0);
  tasks.push_back([&clock, &observed] {
    clock.Sleep(40);
    clock.RewindTo(0);  // Clamps to the frame start, not absolute zero.
    observed[0] = clock.Now();
    clock.Sleep(15);
  });
  tasks.push_back([&clock, &observed] {
    observed[1] = clock.Now();  // Frames start at the epoch base.
    clock.Sleep(60);
  });
  const std::vector<Micros> costs = pool.RunEpoch(std::move(tasks));
  EXPECT_EQ(observed[0], 500);
  EXPECT_EQ(observed[1], 500);
  EXPECT_EQ(costs[0], 15);
  EXPECT_EQ(costs[1], 60);
  EXPECT_EQ(clock.Now(), 560);
}

TEST(TaskPoolTest, InTaskOnlyInsideTasks) {
  SimClock clock;
  EXPECT_FALSE(TaskPool::InTask());
  // Records InTask() inside each of `n` tasks on a pool of `workers`.
  auto inside = [&clock](int workers, size_t n) {
    TaskPool pool(&clock, workers);
    EXPECT_EQ(pool.worker_count(), workers);
    std::vector<int> seen(n, -1);
    std::vector<TaskPool::Task> tasks;
    for (size_t i = 0; i < n; ++i) {
      tasks.push_back([&seen, i] { seen[i] = TaskPool::InTask(); });
    }
    pool.RunEpoch(std::move(tasks));
    EXPECT_FALSE(TaskPool::InTask());
    return seen;
  };
  EXPECT_EQ(inside(2, 2), std::vector<int>({1, 1}));
  // One task on one worker runs on the submitting thread, still as a
  // pool task.
  EXPECT_EQ(inside(1, 1), std::vector<int>({1}));
  // A zero-worker pool's inline tasks are not pool tasks, so routing-
  // table maintenance inside them behaves as in serial code.
  EXPECT_EQ(inside(0, 2), std::vector<int>({0, 0}));
  EXPECT_EQ(inside(0, 1), std::vector<int>({0}));
}

TEST(TaskPoolTest, NestedEpochRunsInlineWithSameAlgebra) {
  SimClock clock;
  TaskPool pool(&clock, 3);
  std::vector<TaskPool::Task> outer;
  Micros inner_elapsed = 0;
  outer.push_back([&clock, &pool, &inner_elapsed] {
    const Micros before = clock.Now();
    std::vector<TaskPool::Task> inner;
    inner.push_back([&clock] { clock.Sleep(20); });
    inner.push_back([&clock] { clock.Sleep(50); });
    pool.RunEpoch(std::move(inner));
    inner_elapsed = clock.Now() - before;
  });
  outer.push_back([&clock] { clock.Sleep(10); });
  const std::vector<Micros> costs = pool.RunEpoch(std::move(outer));
  EXPECT_EQ(inner_elapsed, 50);  // Nested parallel epoch: max, inline.
  EXPECT_EQ(costs[0], 50);
  EXPECT_EQ(costs[1], 10);
  EXPECT_EQ(clock.Now(), 50);
}

/// A deterministic pseudo-random mixer (splitmix64 step): the seeded
/// task graphs below derive every cost and payload from it.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4b9feULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Runs a seeded multi-epoch task graph on `workers` threads and folds
/// everything observable — per-task results, returned costs, the clock
/// trajectory, and the committed trace JSON — into one digest.
uint64_t RunSeededGraph(int workers, uint64_t seed) {
  SimClock clock;
  obs::Tracer tracer(&clock);
  TaskPool pool(&clock, workers);
  pool.SetTracer(&tracer);
  uint64_t digest = seed;
  for (int epoch = 0; epoch < 12; ++epoch) {
    const size_t n = 1 + Mix(seed + epoch) % 16;
    std::vector<uint64_t> results(n, 0);
    std::vector<TaskPool::Task> tasks;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t salt = Mix(seed ^ (epoch * 131 + i));
      tasks.push_back([&clock, &tracer, &results, i, salt] {
        obs::TraceSpan span =
            tracer.StartSpan("graph.task#" + std::to_string(i));
        uint64_t acc = salt;
        for (int r = 0; r < 200; ++r) acc = Mix(acc);
        clock.Sleep(static_cast<Micros>(salt % 97));
        results[i] = acc;
        span.End();
      });
    }
    const std::vector<Micros> costs = pool.RunEpoch(std::move(tasks));
    for (size_t i = 0; i < n; ++i) {
      digest = Mix(digest ^ results[i]);
      digest = Mix(digest ^ static_cast<uint64_t>(costs[i]));
    }
    digest = Mix(digest ^ static_cast<uint64_t>(clock.Now()));
  }
  pool.SetTracer(nullptr);
  for (const char c : tracer.ToJson()) digest = Mix(digest ^ c);
  return digest;
}

TEST(TaskPoolTest, WorkerCountDeterminism) {
  const uint64_t one = RunSeededGraph(1, 0xC0FFEE);
  EXPECT_EQ(RunSeededGraph(0, 0xC0FFEE), one);
  EXPECT_EQ(RunSeededGraph(2, 0xC0FFEE), one);
  EXPECT_EQ(RunSeededGraph(4, 0xC0FFEE), one);
  EXPECT_NE(RunSeededGraph(4, 0xBEEF), one);  // The seed does matter.
}

TEST(TaskPoolTest, StealHeavyStress) {
  SimClock clock;
  TaskPool pool(&clock, 4);
  // Skewed epochs: worker 0 owns nearly all the queued work (round-robin
  // placement, but the first task is a long grind), so idle workers must
  // steal to finish. Correctness, not steal counts, is asserted — on a
  // single hardware core the thieves may legitimately never wake in
  // time.
  std::atomic<uint64_t> total{0};
  constexpr int kEpochs = 50;
  constexpr size_t kTasks = 16;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<TaskPool::Task> tasks;
    for (size_t i = 0; i < kTasks; ++i) {
      tasks.push_back([&total, i] {
        uint64_t acc = i;
        const int spins = i == 0 ? 20000 : 50;
        for (int r = 0; r < spins; ++r) acc = Mix(acc);
        total.fetch_add(acc % 1000, std::memory_order_relaxed);
      });
    }
    pool.RunEpoch(std::move(tasks));
  }
  EXPECT_EQ(pool.epochs_run(), static_cast<uint64_t>(kEpochs));
  EXPECT_EQ(pool.tasks_run(), static_cast<uint64_t>(kEpochs) * kTasks);
  // The deterministic expected sum, computed serially.
  uint64_t expected = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (size_t i = 0; i < kTasks; ++i) {
      uint64_t acc = i;
      const int spins = i == 0 ? 20000 : 50;
      for (int r = 0; r < spins; ++r) acc = Mix(acc);
      expected += acc % 1000;
    }
  }
  EXPECT_EQ(total.load(), expected);
}

// Back-to-back tiny epochs race each worker's exit from a finished epoch
// against the submitter queuing the next one. A worker that claimed an
// index of the new epoch while still bound to the old one would run it
// against the old task vector and never count the new epoch down, so
// RunEpoch would wait forever: the watchdog turns that hang into a
// failure instead of a stuck test binary.
TEST(TaskPoolTest, BackToBackEpochsNeverClaimAcrossGenerations) {
  constexpr int kEpochs = 100000;
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::minutes(2),
                     [&] { return finished; })) {
      std::fprintf(stderr, "RunEpoch hung: a task crossed epochs\n");
      std::abort();
    }
  });
  SimClock clock;
  TaskPool pool(&clock, 2);
  std::atomic<uint64_t> ran{0};
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<TaskPool::Task> tasks(
        3, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.RunEpoch(std::move(tasks));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_one();
  watchdog.join();
  EXPECT_EQ(ran.load(), 3u * kEpochs);
  EXPECT_EQ(pool.tasks_run(), 3u * kEpochs);
}

TEST(TaskPoolTest, LowestIndexExceptionPropagatesAndPoolSurvives) {
  // Zero workers run the epoch inline; it must still run every task
  // before rethrowing, unlike a plain loop that stops at the first throw.
  for (int workers : {4, 0}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    SimClock clock;
    TaskPool pool(&clock, workers);
    std::vector<TaskPool::Task> tasks;
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([&clock, &ran, i] {
        ran.fetch_add(1, std::memory_order_relaxed);
        clock.Sleep(10 + i);
        if (i == 5) throw std::runtime_error("task five");
        if (i == 2) throw std::runtime_error("task two");
      });
    }
    try {
      pool.RunEpoch(std::move(tasks));
      FAIL() << "epoch with throwing tasks did not throw";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "task two");  // Lowest index wins.
    }
    // Every task still ran and the clock still advanced by the slowest.
    EXPECT_EQ(ran.load(), 8);
    EXPECT_EQ(clock.Now(), 17);
    // The pool is reusable after a throwing epoch.
    std::vector<TaskPool::Task> again;
    again.push_back([&clock] { clock.Sleep(3); });
    const std::vector<Micros> costs = pool.RunEpoch(std::move(again));
    EXPECT_EQ(costs[0], 3);
    EXPECT_EQ(clock.Now(), 20);
  }
}

object::MultimediaObject TextObject(storage::ObjectId id,
                                    const std::string& body) {
  object::MultimediaObject obj(id);
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\n" + body + "\n");
  EXPECT_TRUE(doc.ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  return obj;
}

TEST(TaskPoolTest, PooledTopKMatchesSerialBitForBit) {
  query::ScoredIndex index;
  for (storage::ObjectId id = 1; id <= 24; ++id) {
    std::string body = "filler words about scheduling and budgets";
    for (storage::ObjectId k = 0; k < id % 7; ++k) body += " fracture";
    if (id % 3 == 0) body += " treatment plan";
    index.Add(TextObject(id, body), 1.0);
  }
  const std::vector<std::string> words{"fracture", "treatment"};
  query::QueryEngine engine;
  for (const query::QueryMode mode :
       {query::QueryMode::kConjunctive, query::QueryMode::kDisjunctive}) {
    const query::RankedQuery serial =
        engine.TopK(index, index, words, 8, mode, nullptr);
    SimClock clock;
    TaskPool pool(&clock, 4);
    const query::RankedQuery pooled =
        engine.TopK(index, index, words, 8, mode, &pool);
    EXPECT_EQ(pooled.terms_scored, serial.terms_scored);
    EXPECT_EQ(pooled.postings_scanned, serial.postings_scanned);
    EXPECT_EQ(pooled.heap_evictions, serial.heap_evictions);
    ASSERT_EQ(pooled.hits.size(), serial.hits.size());
    for (size_t i = 0; i < serial.hits.size(); ++i) {
      EXPECT_EQ(pooled.hits[i].id, serial.hits[i].id);
      EXPECT_EQ(pooled.hits[i].score, serial.hits[i].score);
    }
  }
}

TEST(TaskPoolTest, TsanHammerOnSharedStructures) {
  // Every worker hammers the structures pool tasks legitimately share:
  // the striped block cache, registry counters and histograms, the
  // scored index's version counter, and per-task tracer sinks. The
  // assertions are loose — the point is the interleaving itself, which
  // the tsan CI job runs under -fsanitize=thread.
  SimClock clock;
  obs::Tracer tracer(&clock);
  obs::MetricsRegistry registry;
  storage::BlockCache cache(64, &registry, /*stripes=*/8);
  query::ScoredIndex index;
  index.Add(TextObject(1, "shared fracture document"), 1.0);
  obs::Counter* ops = registry.counter("hammer.ops");
  obs::Histogram* sizes = registry.histogram("hammer.sizes");
  TaskPool pool(&clock, 4);
  pool.SetTracer(&tracer);
  for (int epoch = 0; epoch < 20; ++epoch) {
    std::vector<TaskPool::Task> tasks;
    for (size_t i = 0; i < 8; ++i) {
      tasks.push_back([&, i, epoch] {
        obs::TraceSpan span = tracer.StartSpan("hammer.lane");
        for (uint64_t block = 0; block < 40; ++block) {
          const uint64_t key = Mix(block * 8 + i + epoch) % 96;
          std::string payload;
          if (!cache.Lookup(key, &payload)) {
            cache.Insert(key, std::string(1 + key % 17, 'x'));
          }
          if (key % 13 == 0) cache.Erase(key);
          ops->Increment();
          sizes->Record(static_cast<double>(key));
          (void)index.Postings("fracture").size();
          (void)index.version();
        }
        clock.Sleep(static_cast<Micros>(i));
        span.End();
      });
    }
    pool.RunEpoch(std::move(tasks));
  }
  pool.SetTracer(nullptr);
  EXPECT_EQ(ops->value(), 20 * 8 * 40);
  EXPECT_LE(cache.size(), 64u);
  EXPECT_EQ(cache.stripes(), 8u);
}

}  // namespace
}  // namespace minos::runtime
