#include "minos/storage/archiver.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace minos::storage {
namespace {

class ArchiverTest : public ::testing::Test {
 protected:
  ArchiverTest()
      : device_("optical", 1024, 32, DeviceCostModel::Instant(),
                /*write_once=*/true, &clock_),
        cache_(16),
        archiver_(&device_, &cache_) {}

  SimClock clock_;
  BlockDevice device_;
  BlockCache cache_;
  Archiver archiver_;
};

TEST_F(ArchiverTest, AppendAssignsSequentialAddresses) {
  auto a = archiver_.Append("hello");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->offset, 0u);
  EXPECT_EQ(a->length, 5u);
  auto b = archiver_.Append("world!");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->offset, 5u);
  EXPECT_EQ(b->length, 6u);
  EXPECT_EQ(archiver_.size(), 11u);
}

TEST_F(ArchiverTest, ReadBackBeforeFlush) {
  auto a = archiver_.Append("unflushed tail data");
  ASSERT_TRUE(a.ok());
  std::string out;
  ASSERT_TRUE(archiver_.Read(*a, &out).ok());
  EXPECT_EQ(out, "unflushed tail data");
}

TEST_F(ArchiverTest, ReadBackAfterFlush) {
  auto a = archiver_.Append("persisted");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(archiver_.Flush().ok());
  std::string out;
  ASSERT_TRUE(archiver_.Read(*a, &out).ok());
  EXPECT_EQ(out, "persisted");
}

TEST_F(ArchiverTest, LargeAppendSpansBlocks) {
  const std::string big(200, 'z');  // > 6 blocks of 32.
  auto a = archiver_.Append(big);
  ASSERT_TRUE(a.ok());
  std::string out;
  ASSERT_TRUE(archiver_.Read(*a, &out).ok());
  EXPECT_EQ(out, big);
  EXPECT_GT(device_.blocks_used(), 5u);
}

TEST_F(ArchiverTest, ReadRangeWithinAppend) {
  const std::string payload = "0123456789abcdefghijklmnopqrstuvwxyz";
  auto a = archiver_.Append(payload);
  ASSERT_TRUE(a.ok());
  std::string out;
  ASSERT_TRUE(archiver_.ReadRange(10, 6, &out).ok());
  EXPECT_EQ(out, "abcdef");
}

TEST_F(ArchiverTest, ReadPastEndRejected) {
  archiver_.Append("short");
  std::string out;
  EXPECT_TRUE(archiver_.ReadRange(0, 100, &out).IsOutOfRange());
  // offset + length wraps to 1 here; the check must not.
  EXPECT_TRUE(archiver_.ReadRange(UINT64_MAX, 2, &out).IsOutOfRange());
}

TEST_F(ArchiverTest, EmptyReadIsOk) {
  std::string out = "junk";
  ASSERT_TRUE(archiver_.ReadRange(0, 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(ArchiverTest, FlushAlignsNextAppendToBlock) {
  auto a = archiver_.Append("x");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(archiver_.Flush().ok());
  auto b = archiver_.Append("y");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->offset % 32, 0u);  // Starts on a fresh WORM block.
  std::string out;
  ASSERT_TRUE(archiver_.Read(*b, &out).ok());
  EXPECT_EQ(out, "y");
}

TEST_F(ArchiverTest, DoubleFlushIsIdempotent) {
  archiver_.Append("data");
  ASSERT_TRUE(archiver_.Flush().ok());
  ASSERT_TRUE(archiver_.Flush().ok());  // No tail: no-op.
}

TEST_F(ArchiverTest, CacheAvoidsDeviceReads) {
  const std::string payload(64, 'q');  // Exactly 2 blocks.
  auto a = archiver_.Append(payload);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(archiver_.Flush().ok());
  device_.ResetStats();
  std::string out;
  // Blocks were cached at write time; reads should hit the cache.
  ASSERT_TRUE(archiver_.Read(*a, &out).ok());
  EXPECT_EQ(device_.stats().reads, 0u);
  EXPECT_EQ(out.substr(0, 64), payload);
}

TEST_F(ArchiverTest, WorksWithoutCache) {
  SimClock clock;
  BlockDevice dev("d", 64, 32, DeviceCostModel::Instant(), true, &clock);
  Archiver archiver(&dev, nullptr);
  auto a = archiver.Append("no cache here");
  ASSERT_TRUE(a.ok());
  std::string out;
  ASSERT_TRUE(archiver.Read(*a, &out).ok());
  EXPECT_EQ(out, "no cache here");
}

TEST_F(ArchiverTest, ManySmallAppendsRoundTrip) {
  std::vector<ArchiveAddress> addrs;
  for (int i = 0; i < 50; ++i) {
    auto a = archiver_.Append("item-" + std::to_string(i));
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  for (int i = 0; i < 50; ++i) {
    std::string out;
    ASSERT_TRUE(archiver_.Read(addrs[static_cast<size_t>(i)], &out).ok());
    EXPECT_EQ(out, "item-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace minos::storage
