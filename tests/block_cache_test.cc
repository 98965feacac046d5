#include "minos/storage/block_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "minos/util/random.h"

namespace minos::storage {
namespace {

TEST(BlockCacheTest, MissOnEmpty) {
  BlockCache cache(4);
  std::string out;
  EXPECT_FALSE(cache.Lookup(1, &out));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(BlockCacheTest, HitAfterInsert) {
  BlockCache cache(4);
  cache.Insert(1, "payload");
  std::string out;
  ASSERT_TRUE(cache.Lookup(1, &out));
  EXPECT_EQ(out, "payload");
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(2);
  cache.Insert(1, "a");
  cache.Insert(2, "b");
  std::string out;
  ASSERT_TRUE(cache.Lookup(1, &out));  // 1 is now MRU.
  cache.Insert(3, "c");                // Evicts 2.
  EXPECT_TRUE(cache.Lookup(1, &out));
  EXPECT_FALSE(cache.Lookup(2, &out));
  EXPECT_TRUE(cache.Lookup(3, &out));
}

TEST(BlockCacheTest, InsertRefreshesExisting) {
  BlockCache cache(2);
  cache.Insert(1, "a");
  cache.Insert(2, "b");
  cache.Insert(1, "a2");  // Refresh 1; 2 becomes LRU.
  cache.Insert(3, "c");   // Evicts 2.
  std::string out;
  ASSERT_TRUE(cache.Lookup(1, &out));
  EXPECT_EQ(out, "a2");
  EXPECT_FALSE(cache.Lookup(2, &out));
}

TEST(BlockCacheTest, ZeroCapacityNeverStores) {
  BlockCache cache(0);
  cache.Insert(1, "a");
  std::string out;
  EXPECT_FALSE(cache.Lookup(1, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BlockCacheTest, EraseRemoves) {
  BlockCache cache(4);
  cache.Insert(1, "a");
  cache.Erase(1);
  std::string out;
  EXPECT_FALSE(cache.Lookup(1, &out));
  cache.Erase(99);  // Erasing a missing key is a no-op.
}

TEST(BlockCacheTest, ClearRemovesEverything) {
  BlockCache cache(4);
  cache.Insert(1, "a");
  cache.Insert(2, "b");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  std::string out;
  EXPECT_FALSE(cache.Lookup(1, &out));
}

TEST(BlockCacheTest, HitRateComputed) {
  BlockCache cache(4);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.0);
  cache.Insert(1, "a");
  std::string out;
  cache.Lookup(1, &out);
  cache.Lookup(2, &out);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(BlockCacheTest, SizeNeverExceedsCapacity) {
  BlockCache cache(8);
  for (uint64_t i = 0; i < 100; ++i) cache.Insert(i, "x");
  EXPECT_EQ(cache.size(), 8u);
}

/// The list-plus-map LRU the frame cache replaced, kept as the model the
/// differential test checks against: per stripe, a std::list in recency
/// order (front = most recent) and a map from block to list node.
class ListLruModel {
 public:
  ListLruModel(size_t capacity, size_t stripes)
      : capacity_(capacity), shards_(std::max<size_t>(stripes, 1)) {
    const size_t n = shards_.size();
    for (size_t i = 0; i < n; ++i) {
      shards_[i].capacity = capacity / n + (i < capacity % n);
    }
  }

  bool Lookup(uint64_t block, std::string* out) {
    Shard& s = ShardFor(block);
    auto it = s.map.find(block);
    if (it == s.map.end()) {
      ++misses;
      return false;
    }
    ++hits;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    *out = it->second->payload;
    return true;
  }

  void Insert(uint64_t block, std::string payload) {
    if (capacity_ == 0) return;
    Shard& s = ShardFor(block);
    auto it = s.map.find(block);
    if (it != s.map.end()) {
      it->second->payload = std::move(payload);
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return;
    }
    s.lru.push_front(Entry{block, std::move(payload)});
    s.map[block] = s.lru.begin();
    while (s.map.size() > s.capacity) {
      s.map.erase(s.lru.back().block);
      s.lru.pop_back();
      ++evictions;
    }
  }

  void Erase(uint64_t block) {
    Shard& s = ShardFor(block);
    auto it = s.map.find(block);
    if (it == s.map.end()) return;
    s.lru.erase(it->second);
    s.map.erase(it);
  }

  void Clear() {
    for (Shard& s : shards_) {
      s.lru.clear();
      s.map.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& s : shards_) total += s.map.size();
    return total;
  }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

 private:
  struct Entry {
    uint64_t block;
    std::string payload;
  };
  struct Shard {
    size_t capacity = 0;
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
  };

  Shard& ShardFor(uint64_t block) {
    return shards_[block % shards_.size()];
  }

  size_t capacity_;
  std::vector<Shard> shards_;
};

// Random Insert, Lookup, slice append, Erase and Clear on the frame
// cache and the list model: counters, size and returned bytes must agree
// after every step, at every stripe count and capacity.
TEST(BlockCacheTest, MatchesListLruModelUnderRandomOps) {
  for (size_t stripes : {size_t{1}, size_t{3}, size_t{8}}) {
    for (size_t capacity : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
      SCOPED_TRACE("stripes " + std::to_string(stripes) + " capacity " +
                   std::to_string(capacity));
      obs::MetricsRegistry registry;
      BlockCache cache(capacity, &registry, stripes);
      ListLruModel model(capacity, stripes);
      Random rng(stripes * 1000 + capacity);
      for (int step = 0; step < 4000; ++step) {
        const uint64_t block = rng.Uniform(2 * capacity + 8);
        const uint64_t op = rng.Uniform(100);
        std::string got = "kept";
        std::string want = "kept";
        if (op < 40) {
          std::string payload(16 + rng.Uniform(25), '\0');
          for (char& ch : payload) ch = static_cast<char>(rng.Uniform(256));
          cache.Insert(block, payload);
          model.Insert(block, payload);
        } else if (op < 65) {
          ASSERT_EQ(cache.Lookup(block, &got), model.Lookup(block, &want));
        } else if (op < 90) {
          const size_t pos = rng.Uniform(17);
          const size_t n = rng.Uniform(41);
          std::string whole;
          const bool hit = model.Lookup(block, &whole);
          if (hit) want.append(whole, pos, n);
          ASSERT_EQ(cache.AppendSlice(block, pos, n, &got), hit);
        } else if (op < 98) {
          cache.Erase(block);
          model.Erase(block);
        } else {
          cache.Clear();
          model.Clear();
        }
        ASSERT_EQ(got, want) << "step " << step;
        ASSERT_EQ(cache.hits(), model.hits) << "step " << step;
        ASSERT_EQ(cache.misses(), model.misses) << "step " << step;
        ASSERT_EQ(cache.evictions(), model.evictions) << "step " << step;
        ASSERT_EQ(cache.size(), model.size()) << "step " << step;
      }
    }
  }
}

TEST(BlockCacheTest, AppendSliceCountsLikeLookup) {
  obs::MetricsRegistry registry;
  BlockCache cache(2, &registry);
  cache.Insert(1, "abcdef");
  cache.Insert(2, "ghijkl");
  std::string out = ">";
  EXPECT_FALSE(cache.AppendSlice(3, 0, 2, &out));
  ASSERT_TRUE(cache.AppendSlice(1, 2, 3, &out));   // 1 becomes MRU.
  ASSERT_TRUE(cache.AppendSlice(1, 4, 10, &out));  // Clamped at the end.
  EXPECT_EQ(out, ">cdeef");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert(3, "mnopqr");  // Evicts 2, the least recently used.
  EXPECT_FALSE(cache.Lookup(2, &out));
  EXPECT_TRUE(cache.Lookup(1, &out));
}

/// Payload every thread inserts for `block`, so any hit can be checked.
std::string PayloadOf(uint64_t block) {
  return std::string(8 + block % 9, static_cast<char>('a' + block % 26));
}

// Four threads insert, look up, append slices from and erase overlapping
// blocks of one striped cache. The thread sanitizer job runs this to
// check the frames' locking; every hit must return its block's bytes.
TEST(BlockCacheTest, FourThreadsShareOneStripedCache) {
  obs::MetricsRegistry registry;
  BlockCache cache(48, &registry, /*stripes=*/8);
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::vector<uint64_t> lookups(kThreads, 0);
  std::vector<uint64_t> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 1);
      std::string out;
      for (int i = 0; i < kOps; ++i) {
        const uint64_t block = rng.Uniform(96);
        const std::string payload = PayloadOf(block);
        switch (rng.Uniform(4)) {
          case 0:
            cache.Insert(block, payload);
            break;
          case 1:
            ++lookups[t];
            if (cache.Lookup(block, &out) && out != payload) ++wrong[t];
            break;
          case 2:
            ++lookups[t];
            out.clear();
            if (cache.AppendSlice(block, 2, 5, &out) &&
                out != payload.substr(2, 5)) {
              ++wrong[t];
            }
            break;
          default:
            cache.Erase(block);
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t total_lookups = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[t], 0u) << "thread " << t;
    total_lookups += lookups[t];
  }
  EXPECT_EQ(cache.hits() + cache.misses(), total_lookups);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_LE(cache.size(), 48u);
}

}  // namespace
}  // namespace minos::storage
