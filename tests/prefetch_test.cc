// The asynchronous prefetch pipeline: background-channel time model
// (free hits, residual waits, foreground fallback), jump cancellation,
// fault posture (speculative failures never trip the foreground
// breaker), backoff windows spent pumping, and the end-to-end demand
// paging path through the workstation.

#include "minos/server/prefetch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "minos/core/visual_browser.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/object_server.h"
#include "minos/server/workstation.h"
#include "minos/text/formatter.h"
#include "minos/text/markup.h"
#include "minos/util/random.h"

namespace minos::server {
namespace {

using object::MultimediaObject;
using object::VisualPageSpec;

/// A queue over a local registry so counters start from zero.
struct QueueHarness {
  SimClock clock;
  obs::MetricsRegistry registry;
  PrefetchQueue queue;

  explicit QueueHarness(PrefetchOptions options = {})
      : queue(&clock, nullptr, WithRegistry(options, &registry)) {}

  static PrefetchOptions WithRegistry(PrefetchOptions options,
                                      obs::MetricsRegistry* registry) {
    options.registry = registry;
    return options;
  }

  /// Work that models a transfer of `cost` simulated time.
  PrefetchQueue::PageWork Costing(Micros cost) {
    return [this, cost] {
      clock.Advance(cost);
      return Status::OK();
    };
  }

  int64_t Count(const std::string& name) {
    return static_cast<int64_t>(registry.counter("prefetch." + name)->value());
  }
};

constexpr PrefetchKey Page(uint64_t object_id, int index) {
  return PrefetchKey{PrefetchKind::kVisualPage, object_id, index};
}

// --- Background-channel time model ------------------------------------

TEST(PrefetchQueueTest, HitAfterFullOverlapIsFree) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  // The foreground clock never saw the speculative work.
  EXPECT_EQ(h.clock.Now(), 0);

  h.clock.Advance(MillisToMicros(50));  // The user reads the page.
  EXPECT_TRUE(h.queue.TakePage(Page(1, 2)));
  EXPECT_EQ(h.clock.Now(), MillisToMicros(50));  // No extra wait.
  EXPECT_EQ(h.Count("hits"), 1);
  EXPECT_EQ(h.Count("issued"), 1);
}

TEST(PrefetchQueueTest, EarlyConsumerWaitsOnlyTheResidual) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  h.clock.Advance(MillisToMicros(4));  // Turn the page early.
  EXPECT_TRUE(h.queue.TakePage(Page(1, 2)));
  // Waited out the remaining 6 ms of background transfer, not all 10.
  EXPECT_EQ(h.clock.Now(), MillisToMicros(10));
  EXPECT_EQ(h.Count("partial_hits"), 1);
}

TEST(PrefetchQueueTest, BackgroundChannelIsSerialized) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  h.queue.WantPage(Page(1, 3), 2, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  // One channel: the second transfer queues behind the first, so its
  // completion is at 20 ms, not 10.
  EXPECT_EQ(h.queue.background_free_at(), MillisToMicros(20));
  h.clock.Advance(MillisToMicros(19));
  EXPECT_TRUE(h.queue.TakePage(Page(1, 3)));
  EXPECT_EQ(h.clock.Now(), MillisToMicros(20));
}

TEST(PrefetchQueueTest, BackedUpChannelFallsBackToForeground) {
  PrefetchOptions options;
  options.max_page_wait_us = MillisToMicros(5);
  QueueHarness h(options);
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(50)));
  h.queue.Pump();
  // Residual would be 50 ms — more than the cap: the entry is dropped
  // and the caller is told to do the (cheap) foreground transfer.
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));
  EXPECT_EQ(h.clock.Now(), 0);  // Never blocked the foreground.
  EXPECT_EQ(h.Count("misses"), 1);
  EXPECT_EQ(h.Count("wasted"), 1);
  // The entry is gone, not retried later.
  EXPECT_EQ(h.queue.ready_count(), 0u);
}

TEST(PrefetchQueueTest, QueuedUnissuedEntryIsSupersededByForeground) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  // No Pump: the cursor arrived before any idle window.
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));
  EXPECT_EQ(h.Count("misses"), 1);
  EXPECT_EQ(h.queue.queued_count(), 0u);  // Dropped, not left behind.
}

TEST(PrefetchQueueTest, DuplicateWantsAreIgnored) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(10)));
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(99)));
  EXPECT_EQ(h.Count("enqueued"), 1);
  EXPECT_EQ(h.queue.queued_count(), 1u);
}

TEST(PrefetchQueueTest, PumpIssuesNearestDistanceFirst) {
  PrefetchOptions options;
  options.max_inflight_per_pump = 1;
  QueueHarness h(options);
  h.queue.WantPage(Page(1, 5), 3, h.Costing(MillisToMicros(10)));
  h.queue.WantPage(Page(1, 3), 1, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  // The nearer page (distance 1) was issued, the farther one is still
  // queued.
  EXPECT_EQ(h.queue.ready_count(), 1u);
  h.clock.Advance(MillisToMicros(10));
  EXPECT_TRUE(h.queue.TakePage(Page(1, 3)));
  EXPECT_EQ(h.Count("hits"), 1);
}

// --- Jump cancellation -------------------------------------------------

TEST(PrefetchQueueTest, JumpCancelsQueuedAndWastesReadyEntries) {
  PrefetchOptions options;
  options.max_inflight_per_pump = 2;
  options.pages_ahead = 2;
  options.pages_behind = 1;
  QueueHarness h(options);
  for (int page = 2; page <= 5; ++page) {
    h.queue.WantPage(Page(1, page), page - 1,
                     h.Costing(MillisToMicros(5)));
  }
  h.queue.Pump();  // Issues pages 2 and 3; pages 4 and 5 stay queued.
  ASSERT_EQ(h.queue.ready_count(), 2u);
  ASSERT_EQ(h.queue.queued_count(), 2u);

  // The user jumps to page 40: everything around the old cursor is
  // stale (the workstation's radius, max(pages_ahead, pages_behind) = 2).
  h.queue.OnJump(Page(1, 40), 2);
  EXPECT_EQ(h.Count("wasted"), 2);     // Ready pages 2, 3: work discarded.
  EXPECT_EQ(h.Count("cancelled"), 2);  // Queued pages 4, 5: never ran.

  // A stale ready page can never be delivered after the jump.
  h.clock.Advance(MillisToMicros(100));
  for (int page = 2; page <= 5; ++page) {
    EXPECT_FALSE(h.queue.TakePage(Page(1, page))) << "page " << page;
  }
}

TEST(PrefetchQueueTest, JumpKeepsEntriesInsideTheNewRadius) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(1, 41), 39, h.Costing(MillisToMicros(5)));
  h.queue.Pump();
  h.queue.OnJump(Page(1, 40), 2);
  // Page 41 is within radius of the new cursor: still ready for a hit.
  h.clock.Advance(MillisToMicros(100));
  EXPECT_TRUE(h.queue.TakePage(Page(1, 41)));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));
}

TEST(PrefetchQueueTest, JumpOnlyDropsTheMatchingObjectAndKind) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(2, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.Pump();
  h.queue.OnJump(Page(1, 40), 2);
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));  // Stale.
  EXPECT_TRUE(h.queue.TakePage(Page(2, 2)));   // Another object: kept.
}

TEST(PrefetchQueueTest, CancelAllDropsEverything) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(1, 3), 2, h.Costing(MillisToMicros(5)));
  h.queue.Pump();  // Both issue (default max_inflight_per_pump = 2).
  h.queue.WantPage(Page(1, 4), 3, h.Costing(MillisToMicros(5)));
  h.queue.CancelAll();
  EXPECT_EQ(h.Count("wasted"), 2);
  EXPECT_EQ(h.Count("cancelled"), 1);
  EXPECT_EQ(h.queue.queued_count() + h.queue.ready_count(), 0u);
}

TEST(PrefetchQueueTest, EvictionKeepsTheReadySetBounded) {
  PrefetchOptions options;
  options.ready_capacity = 1;
  options.max_inflight_per_pump = 2;
  QueueHarness h(options);
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(1, 3), 2, h.Costing(MillisToMicros(5)));
  h.queue.Pump();
  // Capacity 1: the stalest ready entry was evicted as wasted.
  EXPECT_EQ(h.queue.ready_count(), 1u);
  EXPECT_EQ(h.Count("wasted"), 1);
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));  // The evicted one.
  EXPECT_TRUE(h.queue.TakePage(Page(1, 3)));
}

// --- Failures and the backoff sleeper ----------------------------------

TEST(PrefetchQueueTest, FailedWorkIsDroppedButStillOccupiesTheChannel) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, [&h] {
    h.clock.Advance(MillisToMicros(8));  // Timed out after 8 ms.
    return Status::Unavailable("link drop");
  });
  h.queue.WantPage(Page(1, 3), 2, h.Costing(MillisToMicros(10)));
  h.queue.Pump();
  EXPECT_EQ(h.Count("errors"), 1);
  EXPECT_EQ(h.clock.Now(), 0);  // The foreground never saw the failure.
  // The failed attempt held the channel for 8 ms before the next
  // transfer could start.
  EXPECT_EQ(h.queue.background_free_at(), MillisToMicros(18));
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));  // Dropped, not retried.
  EXPECT_TRUE(h.queue.TakePage(Page(1, 3)));
}

TEST(PrefetchQueueTest, BackoffSleeperPumpsTheQueueThenWaits) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(3)));
  BackoffSleeper sleeper = h.queue.MakeBackoffSleeper();
  // A foreground retry waits out its backoff window; the window is
  // spent starting the queued background transfer.
  sleeper(MillisToMicros(20));
  EXPECT_EQ(h.clock.Now(), MillisToMicros(20));  // The wait happened...
  EXPECT_TRUE(h.queue.TakePage(Page(1, 2)));     // ...and so did the work.
  EXPECT_EQ(h.clock.Now(), MillisToMicros(20));  // Free hit: no recharge.
  EXPECT_EQ(h.Count("hits"), 1);
}

TEST(PrefetchQueueTest, ObjectAndMiniaturePayloadsRoundTrip) {
  QueueHarness h;
  h.queue.WantObject(7, 0, [&h]() -> StatusOr<MultimediaObject> {
    h.clock.Advance(MillisToMicros(5));
    return MultimediaObject(7);
  });
  h.queue.WantMiniature(3, 1, [&h]() -> StatusOr<MiniatureCard> {
    h.clock.Advance(MillisToMicros(2));
    MiniatureCard card;
    card.id = 9;
    return card;
  });
  h.queue.Pump();
  h.clock.Advance(MillisToMicros(20));
  auto object = h.queue.TakeObject(7);
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->id(), 7u);
  auto card = h.queue.TakeMiniature(3, 9);
  ASSERT_TRUE(card.has_value());
  EXPECT_EQ(card->id, 9u);
  EXPECT_EQ(h.Count("hits"), 2);
  // Consumed entries do not linger.
  EXPECT_FALSE(h.queue.TakeObject(7).has_value());
  EXPECT_FALSE(h.queue.TakeMiniature(3, 9).has_value());
}

TEST(PrefetchQueueTest, TakeMiniatureRejectsAnotherObjectsCard) {
  QueueHarness h;
  h.queue.WantMiniature(3, 1, [&h]() -> StatusOr<MiniatureCard> {
    h.clock.Advance(MillisToMicros(2));
    MiniatureCard card;
    card.id = 9;
    return card;
  });
  h.queue.Pump();
  h.clock.Advance(MillisToMicros(20));
  // Position 3 now names object 5 (a new query strip): the staged card
  // of object 9 must be dropped, never delivered.
  EXPECT_FALSE(h.queue.TakeMiniature(3, 5).has_value());
  EXPECT_EQ(h.Count("wasted"), 1);
  EXPECT_EQ(h.Count("misses"), 1);
  EXPECT_EQ(h.Count("hits"), 0);
  EXPECT_EQ(h.queue.ready_count(), 0u);
}

TEST(PrefetchQueueTest, CancelKindDropsOnlyThatKind) {
  QueueHarness h;
  h.queue.WantMiniature(0, 1, []() -> StatusOr<MiniatureCard> {
    return MiniatureCard{};
  });
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.Pump();
  h.queue.Cancel(PrefetchKind::kMiniature);
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakeMiniature(0, 0).has_value());
  EXPECT_TRUE(h.queue.TakePage(Page(1, 2)));  // Pages untouched.
}

TEST(PrefetchQueueTest, CancelObjectSparesOtherObjectsAndMiniatures) {
  QueueHarness h;
  h.queue.WantPage(Page(1, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantPage(Page(2, 2), 1, h.Costing(MillisToMicros(5)));
  h.queue.WantMiniature(0, 1, []() -> StatusOr<MiniatureCard> {
    MiniatureCard card;
    card.id = 4;
    return card;
  });
  h.queue.Pump();
  h.queue.Pump();  // Default max_inflight_per_pump = 2: issue all three.
  h.queue.CancelObject(1);
  h.clock.Advance(MillisToMicros(100));
  EXPECT_FALSE(h.queue.TakePage(Page(1, 2)));  // Re-opened: invalidated.
  EXPECT_TRUE(h.queue.TakePage(Page(2, 2)));
  EXPECT_TRUE(h.queue.TakeMiniature(0, 4).has_value());
}

// --- Differential: the indexed queue against plain scans ----------------

/// The queue's rules written as scans over every entry: the reference
/// the indexed queue must reproduce step for step — pick order (nearest
/// distance, then FIFO), the owner-aware eviction victim, per-owner
/// budgets, the background-channel time model and every counter. Work
/// is not run; each entry carries the cost and verdict its real work
/// will produce.
class ScanModel {
 public:
  explicit ScanModel(const PrefetchOptions& options) : options_(options) {}

  void Want(const PrefetchKey& key, int distance, uint64_t bytes,
            Micros cost, bool fails, uint64_t card_id = 0) {
    if (entries_.count(key) > 0) return;
    Entry entry;
    entry.distance = std::abs(distance);
    entry.seq = next_seq_++;
    entry.bytes = bytes;
    entry.cost = cost;
    entry.fails = fails;
    entry.card_id = card_id;
    entries_.emplace(key, entry);
    ++counters["enqueued"];
  }

  void Pump() {
    std::vector<PrefetchKey> picked;
    for (int slot = 0; slot < options_.max_inflight_per_pump; ++slot) {
      const PrefetchKey* pick = nullptr;
      for (const auto& [key, entry] : entries_) {
        if (entry.ready ||
            std::find(picked.begin(), picked.end(), key) != picked.end()) {
          continue;
        }
        if (pick == nullptr) {
          pick = &key;
          continue;
        }
        const Entry& best = entries_.at(*pick);
        if (entry.distance < best.distance ||
            (entry.distance == best.distance && entry.seq < best.seq)) {
          pick = &key;
        }
      }
      if (pick == nullptr) break;
      picked.push_back(*pick);
    }
    const Micros start = clock.Now();
    for (const PrefetchKey& key : picked) {
      Entry& entry = entries_.at(key);
      work_log.push_back(key);
      ++counters["issued"];
      bg_free_at = std::max(bg_free_at, start) + entry.cost;
      if (entry.fails) {
        ++counters["errors"];
        entries_.erase(key);
        continue;
      }
      entry.ready = true;
      entry.ready_at = bg_free_at;
    }
    while (ready_count() > options_.ready_capacity) Evict();
  }

  bool Take(const PrefetchKey& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++counters["misses"];
      return false;
    }
    if (!it->second.ready) {
      entries_.erase(it);
      ++counters["misses"];
      return false;
    }
    const Micros now = clock.Now();
    if (it->second.ready_at > now) {
      const Micros residual = it->second.ready_at - now;
      if (key.kind != PrefetchKind::kObject &&
          residual > options_.max_page_wait_us) {
        entries_.erase(it);
        ++counters["wasted"];
        ++counters["misses"];
        return false;
      }
      clock.Advance(residual);
      ++counters["partial_hits"];
    } else {
      ++counters["hits"];
    }
    entries_.erase(it);
    return true;
  }

  /// The card id a TakeMiniature delivers, if any.
  std::optional<uint64_t> TakeMiniature(int position, uint64_t expected_id) {
    const PrefetchKey key{PrefetchKind::kMiniature, 0, position};
    auto it = entries_.find(key);
    std::optional<uint64_t> card;
    if (it != entries_.end() && it->second.ready) {
      if (it->second.card_id != expected_id) {
        entries_.erase(it);
        ++counters["wasted"];
        ++counters["misses"];
        return std::nullopt;
      }
      card = it->second.card_id;
    }
    if (!Take(key)) return std::nullopt;
    return card;
  }

  void DropIf(const std::function<bool(const PrefetchKey&)>& stale) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (!stale(it->first)) {
        ++it;
        continue;
      }
      ++counters[it->second.ready ? "wasted" : "cancelled"];
      it = entries_.erase(it);
    }
  }

  void OnJump(const PrefetchKey& cursor, int radius) {
    DropIf([&](const PrefetchKey& key) {
      return key.kind == cursor.kind && key.object_id == cursor.object_id &&
             key.owner == cursor.owner &&
             std::abs(key.index - cursor.index) > radius;
    });
  }

  size_t queued_count() const { return entries_.size() - ready_count(); }
  size_t ready_count() const {
    size_t n = 0;
    for (const auto& [key, entry] : entries_) n += entry.ready ? 1 : 0;
    return n;
  }
  size_t size() const { return entries_.size(); }
  uint64_t OutstandingBytes(uint64_t owner) const {
    uint64_t bytes = 0;
    for (const auto& [key, entry] : entries_) {
      if (key.owner == owner) bytes += entry.bytes;
    }
    return bytes;
  }

  SimClock clock;
  Micros bg_free_at = 0;
  std::map<std::string, int64_t> counters;
  std::vector<PrefetchKey> work_log;  ///< Keys in issue order.

 private:
  struct Entry {
    int distance = 0;
    uint64_t seq = 0;
    bool ready = false;
    Micros ready_at = 0;
    uint64_t bytes = 0;
    Micros cost = 0;
    bool fails = false;
    uint64_t card_id = 0;
  };

  /// The owner with the most ready bytes (ties: the owner of the
  /// globally stalest ready entry) loses its stalest ready entry.
  void Evict() {
    struct OwnerStat {
      uint64_t bytes = 0;
      uint64_t stalest_seq = ~0ull;
    };
    std::map<uint64_t, OwnerStat> owners;
    for (const auto& [key, entry] : entries_) {
      if (!entry.ready) continue;
      OwnerStat& stat = owners[key.owner];
      stat.bytes += entry.bytes;
      stat.stalest_seq = std::min(stat.stalest_seq, entry.seq);
    }
    uint64_t victim_owner = 0;
    const OwnerStat* best = nullptr;
    for (const auto& [owner, stat] : owners) {
      if (best == nullptr || stat.bytes > best->bytes ||
          (stat.bytes == best->bytes &&
           stat.stalest_seq < best->stalest_seq)) {
        victim_owner = owner;
        best = &stat;
      }
    }
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready || it->first.owner != victim_owner) continue;
      if (victim == entries_.end() || it->second.seq < victim->second.seq) {
        victim = it;
      }
    }
    entries_.erase(victim);
    ++counters["wasted"];
  }

  PrefetchOptions options_;
  std::map<PrefetchKey, Entry> entries_;
  uint64_t next_seq_ = 0;
};

/// Drives the queue and the scan model through one seeded random
/// sequence of wants, takes, pumps, jumps and cancels — six owners,
/// budget charges that tie (equal and zero bytes), equal distances and
/// costs, failing work, and a ready capacity small enough that most
/// pumps evict across owners — and checks after every step that both
/// agree on work order, take results, per-owner outstanding bytes, the
/// counts, the clock, the channel horizon and every prefetch.* counter.
/// With a pool the picks stage concurrently, so only the multiset of
/// issued work is compared.
void RunDifferential(uint64_t seed, int workers) {
  PrefetchOptions options;
  options.pages_ahead = 2;
  options.pages_behind = 1;
  options.miniature_radius = 1;
  options.max_inflight_per_pump = 3;
  options.ready_capacity = 4;
  options.max_page_wait_us = MillisToMicros(12);
  QueueHarness h(options);
  std::unique_ptr<runtime::TaskPool> pool;
  if (workers > 0) {
    pool = std::make_unique<runtime::TaskPool>(&h.clock, workers);
    h.queue.SetTaskPool(pool.get(),
                        [](uint64_t object) { return object % 3; });
  }
  ScanModel model(options);
  Random rng(seed);
  std::mutex log_mu;
  std::vector<PrefetchKey> log;

  auto run = [&h, &log_mu, &log](PrefetchKey key, Micros cost, bool fails) {
    h.clock.Advance(cost);
    std::lock_guard<std::mutex> lock(log_mu);
    log.push_back(key);
    return fails ? Status::Unavailable("injected") : Status::OK();
  };
  constexpr uint64_t kOwners = 6;
  auto page_key = [&rng] {
    const PrefetchKind kind = rng.Bernoulli(0.8) ? PrefetchKind::kVisualPage
                                                 : PrefetchKind::kAudioPage;
    const uint64_t object_id = 1 + rng.Uniform(4);
    const int index = 1 + static_cast<int>(rng.Uniform(10));
    return PrefetchKey{kind, object_id, index, rng.Uniform(kOwners)};
  };
  auto distance = [&rng] { return static_cast<int>(rng.UniformRange(-3, 3)); };
  auto cost = [&rng] {
    return MillisToMicros(3) * static_cast<Micros>(rng.Uniform(4));
  };
  constexpr uint64_t kBytes[] = {0, 100, 100, 250};

  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.Uniform(100);
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step) + " op " + std::to_string(op));
    if (op < 40) {
      // A want of each kind; the model learns the work's cost and verdict.
      const int d = distance();
      const Micros c = cost();
      const bool fails = rng.Bernoulli(0.1);
      if (op < 30) {
        const PrefetchKey key = page_key();
        const uint64_t bytes = kBytes[rng.Uniform(4)];
        PrefetchQueue::PageWork work = [&run, key, c, fails] {
          return run(key, c, fails);
        };
        h.queue.WantPage(key, d, std::move(work), bytes);
        model.Want(key, d, bytes, c, fails);
      } else if (op < 35) {
        const uint64_t id = 1 + rng.Uniform(4);
        const PrefetchKey key{PrefetchKind::kObject, id, 0};
        PrefetchQueue::ObjectWork work =
            [&run, key, c, fails, id]() -> StatusOr<MultimediaObject> {
          MINOS_RETURN_IF_ERROR(run(key, c, fails));
          return MultimediaObject(id);
        };
        h.queue.WantObject(id, d, std::move(work));
        model.Want(key, d, 0, c, fails);
      } else {
        const int position = static_cast<int>(rng.Uniform(5));
        const PrefetchKey key{PrefetchKind::kMiniature, 0, position};
        const uint64_t card_id = 1 + rng.Uniform(4);
        PrefetchQueue::CardWork work =
            [&run, key, c, fails, card_id]() -> StatusOr<MiniatureCard> {
          MINOS_RETURN_IF_ERROR(run(key, c, fails));
          MiniatureCard card;
          card.id = card_id;
          return card;
        };
        h.queue.WantMiniature(position, d, std::move(work), card_id);
        model.Want(key, d, 0, c, fails, card_id);
      }
    } else if (op < 52) {
      const Micros advance =
          MillisToMicros(4) * static_cast<Micros>(rng.Uniform(5));
      h.clock.Advance(advance);
      model.clock.Advance(advance);
    } else if (op < 66) {
      const PrefetchKey key = page_key();
      ASSERT_EQ(h.queue.TakePage(key), model.Take(key));
    } else if (op < 70) {
      const uint64_t id = 1 + rng.Uniform(4);
      const std::optional<MultimediaObject> got = h.queue.TakeObject(id);
      ASSERT_EQ(got.has_value(),
                model.Take(PrefetchKey{PrefetchKind::kObject, id, 0}));
      if (got.has_value()) {
        EXPECT_EQ(got->id(), id);
      }
    } else if (op < 74) {
      const int position = static_cast<int>(rng.Uniform(5));
      const uint64_t expected = 1 + rng.Uniform(4);
      const std::optional<MiniatureCard> got =
          h.queue.TakeMiniature(position, expected);
      const std::optional<uint64_t> want =
          model.TakeMiniature(position, expected);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got.has_value()) {
        EXPECT_EQ(got->id, *want);
      }
    } else if (op < 88) {
      h.queue.Pump();
      model.Pump();
    } else if (op < 92) {
      const auto kind = static_cast<PrefetchKind>(rng.Uniform(4));
      const uint64_t id =
          kind == PrefetchKind::kMiniature ? 0 : 1 + rng.Uniform(4);
      const int index = 1 + static_cast<int>(rng.Uniform(10));
      const PrefetchKey cursor{kind, id, index, rng.Uniform(kOwners)};
      const int radius = static_cast<int>(rng.Uniform(4));
      h.queue.OnJump(cursor, radius);
      model.OnJump(cursor, radius);
    } else if (op < 94) {
      const auto kind = static_cast<PrefetchKind>(rng.Uniform(4));
      h.queue.Cancel(kind);
      model.DropIf(
          [kind](const PrefetchKey& key) { return key.kind == kind; });
    } else if (op < 96) {
      const uint64_t id = 1 + rng.Uniform(4);
      h.queue.CancelObject(id);
      model.DropIf([id](const PrefetchKey& key) {
        return key.kind != PrefetchKind::kMiniature && key.object_id == id;
      });
    } else if (op < 99) {
      const uint64_t owner = rng.Uniform(kOwners);
      h.queue.CancelOwner(owner);
      model.DropIf(
          [owner](const PrefetchKey& key) { return key.owner == owner; });
    } else {
      h.queue.CancelAll();
      model.DropIf([](const PrefetchKey&) { return true; });
    }

    ASSERT_EQ(h.clock.Now(), model.clock.Now());
    ASSERT_EQ(h.queue.background_free_at(), model.bg_free_at);
    ASSERT_EQ(h.queue.queued_count(), model.queued_count());
    ASSERT_EQ(h.queue.ready_count(), model.ready_count());
    ASSERT_EQ(h.registry.gauge("prefetch.queue_depth")->value(),
              static_cast<double>(model.size()));
    for (uint64_t owner = 0; owner < kOwners; ++owner) {
      ASSERT_EQ(h.queue.OutstandingBytes(owner),
                model.OutstandingBytes(owner))
          << "owner " << owner;
    }
    for (const char* name : {"enqueued", "issued", "hits", "partial_hits",
                             "misses", "wasted", "cancelled", "errors"}) {
      ASSERT_EQ(h.Count(name), model.counters[name]) << name;
    }
    std::vector<PrefetchKey> issued = log;
    std::vector<PrefetchKey> expected = model.work_log;
    if (pool != nullptr) {
      std::sort(issued.begin(), issued.end());
      std::sort(expected.begin(), expected.end());
    }
    ASSERT_EQ(issued, expected);
  }
  // The run must have exercised what it claims to compare.
  EXPECT_GT(h.Count("issued"), 0);
  EXPECT_GT(h.Count("wasted"), 0);
}

TEST(PrefetchDifferentialTest, IndexedQueueMatchesScanRules) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunDifferential(seed, /*workers=*/0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PrefetchDifferentialTest, PooledPumpMatchesScanRules) {
  for (uint64_t seed = 101; seed <= 120; ++seed) {
    RunDifferential(seed, /*workers=*/2);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- Fault posture: the breaker belongs to the foreground ---------------

TEST(PrefetchBreakerTest, BackgroundFailuresDoNotTripTheForegroundBreaker) {
  SimClock clock;
  obs::MetricsRegistry registry;
  Link link = Link::Ethernet(&clock, &registry);
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  link.ConfigureBreaker(options);
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultInjector injector(profile, 11, &clock, &registry);
  link.SetFaultInjector(&injector);

  // A whole burst of failed speculative transfers...
  for (int i = 0; i < 6; ++i) {
    Link::BackgroundScope background(&link);
    EXPECT_FALSE(link.Transfer(4096).ok());
  }
  // ...leaves the breaker closed for the foreground path.
  EXPECT_EQ(link.breaker().state(), CircuitBreaker::State::kClosed);

  // The same failures in the foreground trip it as before.
  EXPECT_FALSE(link.Transfer(4096).ok());
  EXPECT_FALSE(link.Transfer(4096).ok());
  EXPECT_EQ(link.breaker().state(), CircuitBreaker::State::kOpen);
}

TEST(PrefetchBreakerTest, OpenBreakerStillFastFailsBackgroundTransfers) {
  SimClock clock;
  obs::MetricsRegistry registry;
  Link link = Link::Ethernet(&clock, &registry);
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  link.ConfigureBreaker(options);
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultInjector injector(profile, 11, &clock, &registry);
  link.SetFaultInjector(&injector);
  EXPECT_FALSE(link.Transfer(4096).ok());
  EXPECT_FALSE(link.Transfer(4096).ok());
  ASSERT_EQ(link.breaker().state(), CircuitBreaker::State::kOpen);

  // Prefetching over a known-dead link is pointless: fast fail, and the
  // injector sees no more traffic.
  const uint64_t faults_before = injector.faults_injected();
  Link::BackgroundScope background(&link);
  EXPECT_TRUE(link.Transfer(4096).status().IsUnavailable());
  EXPECT_EQ(injector.faults_injected(), faults_before);
}

// --- End to end: demand paging through the workstation ------------------

class PrefetchWorkstationTest : public ::testing::Test {
 protected:
  PrefetchWorkstationTest()
      : device_("optical", 65536, 512,
                storage::DeviceCostModel::Instant(), true, &clock_),
        cache_(256),
        archiver_(&device_, &cache_),
        link_(Link::Ethernet(&clock_)),
        server_(&archiver_, &versions_, &clock_, &link_) {}

  /// A multi-page text object (one visual page per formatted text page).
  /// `keyword` makes the object findable by a query no other object
  /// matches.
  MultimediaObject PagedObject(storage::ObjectId id, int paragraphs,
                               const std::string& keyword = "") {
    MultimediaObject obj(id);
    obj.descriptor().layout.width = 48;
    obj.descriptor().layout.height = 12;
    std::string markup;
    for (int i = 0; i < paragraphs; ++i) {
      markup += ".PP\n" + (keyword.empty() ? "" : keyword + " ") +
                "hospital admission record paragraph describing the "
                "fracture treatment and recovery plan in enough words to "
                "spill across formatted pages\n";
    }
    text::MarkupParser parser;
    auto doc = parser.Parse(markup);
    EXPECT_TRUE(doc.ok());
    EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
    text::TextFormatter formatter(obj.descriptor().layout);
    const size_t pages = formatter.Paginate(obj.text_part()).value().size();
    EXPECT_GE(pages, 2u);
    for (size_t i = 0; i < pages; ++i) {
      VisualPageSpec page;
      page.text_page = static_cast<uint32_t>(i + 1);
      obj.descriptor().pages.push_back(page);
    }
    EXPECT_TRUE(obj.Archive().ok());
    return obj;
  }

  static int64_t Count(const std::string& name) {
    return static_cast<int64_t>(
        obs::MetricsRegistry::Default().counter(name)->value());
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BlockCache cache_;
  storage::Archiver archiver_;
  storage::VersionStore versions_;
  Link link_;
  ObjectServer server_;
};

TEST_F(PrefetchWorkstationTest, SkeletonFetchTransfersFewerBytesThanWhole) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 10)).ok());
  const uint64_t before_whole = link_.bytes_transferred();
  ASSERT_TRUE(server_.Fetch(1, ObjectServer::FetchGranularity::kWhole).ok());
  const uint64_t whole = link_.bytes_transferred() - before_whole;
  const uint64_t before_skeleton = link_.bytes_transferred();
  ASSERT_TRUE(
      server_.Fetch(1, ObjectServer::FetchGranularity::kSkeleton).ok());
  const uint64_t skeleton = link_.bytes_transferred() - before_skeleton;
  // The skeleton defers the pageable text: strictly fewer bytes on the
  // wire at open time.
  EXPECT_LT(skeleton, whole);
  EXPECT_GT(skeleton, 0u);
}

TEST_F(PrefetchWorkstationTest, PageTurnsAfterPrefetchAreFreeHits) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 10)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  const int64_t hits_before = Count("prefetch.hits");

  ASSERT_TRUE(workstation.Present(1).ok());
  core::VisualBrowser* browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  // Read, turn; the background staged the next page during the read.
  for (int turn = 0; turn < 3; ++turn) {
    clock_.Advance(MillisToMicros(200));
    const Micros start = clock_.Now();
    ASSERT_TRUE(browser->NextPage().ok());
    EXPECT_LE(clock_.Now() - start, MillisToMicros(1)) << "turn " << turn;
  }
  EXPECT_GE(Count("prefetch.hits") - hits_before, 3);
}

TEST_F(PrefetchWorkstationTest, DemandPagingChargesEachRangeOnce) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 10)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  ASSERT_TRUE(workstation.Present(1).ok());
  core::VisualBrowser* browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  while (browser->NextPage().ok()) {
    clock_.Advance(MillisToMicros(50));
  }
  // Every page has been delivered: revisiting transfers nothing new.
  const uint64_t bytes_after_first_pass = link_.bytes_transferred();
  ASSERT_TRUE(browser->GotoPage(1).ok());
  while (browser->NextPage().ok()) {
  }
  EXPECT_EQ(link_.bytes_transferred(), bytes_after_first_pass);
}

// Satellite: a goto-page jump mid-prefetch cancels or demotes the stale
// entries and never delivers a stale page.
TEST_F(PrefetchWorkstationTest, GotoPageMidPrefetchDropsStaleEntries) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 28)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  ASSERT_TRUE(workstation.Present(1).ok());
  core::VisualBrowser* browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  const int last = browser->page_count();
  ASSERT_GE(last, 6);
  // Settle into forward browsing so pages 2.. are staged ahead.
  clock_.Advance(MillisToMicros(200));
  ASSERT_TRUE(browser->NextPage().ok());
  ASSERT_GT(workstation.prefetch()->ready_count() +
                workstation.prefetch()->queued_count(),
            0u);

  const int64_t dropped_before =
      Count("prefetch.wasted") + Count("prefetch.cancelled");
  ASSERT_TRUE(browser->GotoPage(last).ok());  // Random seek: a jump.
  // The speculative work around the old cursor was discarded...
  EXPECT_GT(Count("prefetch.wasted") + Count("prefetch.cancelled"),
            dropped_before);
  EXPECT_GT(Count("prefetch.wasted"), 0);
  // ...and the landing page is the real one, not a stale delivery.
  EXPECT_EQ(browser->current_page(), last);
  // Stale entries for the abandoned neighbourhood are gone from the
  // queue: nothing can deliver them any more.
  clock_.Advance(MillisToMicros(500));
  EXPECT_FALSE(workstation.prefetch()->TakePage(
      PrefetchKey{PrefetchKind::kVisualPage, 1, 2}));
}

TEST_F(PrefetchWorkstationTest, LazyQueryMaterializesCardsUnderTheCursor) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 4)).ok());
  ASSERT_TRUE(server_.Store(PagedObject(2, 4)).ok());
  ASSERT_TRUE(server_.Store(PagedObject(3, 4)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  auto browser = workstation.Query({"hospital"});
  ASSERT_TRUE(browser.ok());
  ASSERT_EQ(browser->size(), 3u);
  auto current = browser->Current();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ((*current)->id, 1u);
  ASSERT_TRUE(browser->Next().ok());
  current = browser->Current();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ((*current)->id, 2u);
  EXPECT_EQ(browser->Select().value(), 2u);
}

// A card staged for one query's strip must never be delivered as the
// card of whatever object occupies the same position in the next
// query's strip (nor poison the thumb cache with the wrong thumbnail).
TEST_F(PrefetchWorkstationTest, FreshQueryNeverDeliversStaleMiniatures) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 4, "alpha")).ok());
  ASSERT_TRUE(server_.Store(PagedObject(2, 4, "beta")).ok());
  ASSERT_TRUE(server_.Store(PagedObject(3, 4, "gamma")).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();

  auto first = workstation.Query({"hospital"});
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 3u);
  // Walking the strip stages the flanking cards — including object 1's
  // card at position 0.
  ASSERT_TRUE(first->Next().ok());
  clock_.Advance(MillisToMicros(200));

  // The new strip has object 2 at position 0.
  auto second = workstation.Query({"beta"});
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  auto card = second->Current();
  ASSERT_TRUE(card.ok());
  EXPECT_EQ((*card)->id, 2u);
}

// Re-opening an object restarts its delivery plan: the fresh skeleton
// fetch discounts the page bytes again, so entries staged during the
// previous open must not satisfy them as free hits — the second
// read-through must charge the link exactly what the first did.
TEST_F(PrefetchWorkstationTest, ReopeningAnObjectChargesItsPagesAgain) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 10)).ok());
  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();

  const uint64_t before_first = link_.bytes_transferred();
  ASSERT_TRUE(workstation.Present(1).ok());
  core::VisualBrowser* browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  while (browser->NextPage().ok()) {
    clock_.Advance(MillisToMicros(50));
  }
  const uint64_t first_open = link_.bytes_transferred() - before_first;

  const uint64_t before_second = link_.bytes_transferred();
  ASSERT_TRUE(workstation.Present(1).ok());
  browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  while (browser->NextPage().ok()) {
    clock_.Advance(MillisToMicros(50));
  }
  EXPECT_EQ(link_.bytes_transferred() - before_second, first_open);
}

// The server outlives the workstation by contract; a retried fetch
// after the session ends must not invoke the dead queue's backoff
// sleeper (caught by ASan as a use-after-free before the fix).
TEST_F(PrefetchWorkstationTest, ServerRetriesSafelyAfterWorkstationDies) {
  ASSERT_TRUE(server_.Store(PagedObject(1, 4)).ok());
  {
    render::Screen screen;
    Workstation workstation(&server_, &screen, &clock_);
    workstation.EnablePrefetch();
    ASSERT_TRUE(workstation.Present(1).ok());
  }
  obs::MetricsRegistry registry;
  FaultProfile profile;
  profile.drop_rate = 0.5;
  FaultInjector injector(profile, 7, &clock_, &registry);
  link_.SetFaultInjector(&injector);
  for (int i = 0; i < 10; ++i) {
    (void)server_.Fetch(1);  // Drops force retries and backoff sleeps.
  }
  link_.SetFaultInjector(nullptr);
}

TEST(ApportionStreamTest, SplitsEvenlyWithRemainderOnTheLastPage) {
  EXPECT_EQ(ApportionStream(100, 1, 4),
            (std::pair<uint64_t, uint64_t>{0, 25}));
  EXPECT_EQ(ApportionStream(10, 3, 3),
            (std::pair<uint64_t, uint64_t>{6, 4}));
  EXPECT_EQ(ApportionStream(0, 1, 4), (std::pair<uint64_t, uint64_t>{0, 0}));
  EXPECT_EQ(ApportionStream(100, 5, 4),
            (std::pair<uint64_t, uint64_t>{0, 0}));
}

// A stream smaller than its page count must still be delivered — the
// whole of it rides with every page (delivery is per page, so each page
// a reader lands on carries it once), not vanish into zero-byte chunks.
TEST(ApportionStreamTest, TinyStreamRidesWholeWithEveryPage) {
  for (int page = 1; page <= 9; ++page) {
    EXPECT_EQ(ApportionStream(5, page, 9),
              (std::pair<uint64_t, uint64_t>{0, 5}))
        << "page " << page;
  }
}

}  // namespace
}  // namespace minos::server
