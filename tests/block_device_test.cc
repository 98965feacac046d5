#include "minos/storage/block_device.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "minos/util/random.h"

namespace minos::storage {
namespace {

BlockDevice MakeDevice(SimClock* clock, bool worm = false,
                       DeviceCostModel cost = DeviceCostModel::Instant()) {
  return BlockDevice("dev", /*num_blocks=*/64, /*block_size=*/16, cost, worm,
                     clock);
}

TEST(BlockDeviceTest, WriteThenReadRoundTrip) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock);
  const std::string data(32, 'x');  // Two blocks.
  ASSERT_TRUE(dev.Write(3, data).ok());
  std::string out;
  ASSERT_TRUE(dev.Read(3, 2, &out).ok());
  EXPECT_EQ(out, data);
}

TEST(BlockDeviceTest, UnwrittenBlocksReadAsZeros) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock);
  std::string out;
  ASSERT_TRUE(dev.Read(0, 1, &out).ok());
  EXPECT_EQ(out, std::string(16, '\0'));
}

TEST(BlockDeviceTest, PartialBlockWriteRejected) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock);
  EXPECT_TRUE(dev.Write(0, "short").IsInvalidArgument());
}

TEST(BlockDeviceTest, OutOfRangeAccessRejected) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock);
  std::string out;
  EXPECT_TRUE(dev.Read(63, 2, &out).IsOutOfRange());
  EXPECT_TRUE(dev.Write(64, std::string(16, 'a')).IsOutOfRange());
}

TEST(BlockDeviceTest, WormRejectsRewrite) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock, /*worm=*/true);
  const std::string data(16, 'a');
  ASSERT_TRUE(dev.Write(5, data).ok());
  EXPECT_TRUE(dev.Write(5, data).IsFailedPrecondition());
  // A different block is still writable.
  EXPECT_TRUE(dev.Write(6, data).ok());
}

TEST(BlockDeviceTest, MagneticAllowsRewrite) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock, /*worm=*/false);
  const std::string a(16, 'a'), b(16, 'b');
  ASSERT_TRUE(dev.Write(5, a).ok());
  ASSERT_TRUE(dev.Write(5, b).ok());
  std::string out;
  ASSERT_TRUE(dev.Read(5, 1, &out).ok());
  EXPECT_EQ(out, b);
}

TEST(BlockDeviceTest, BlocksUsedTracksHighWater) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock);
  EXPECT_EQ(dev.blocks_used(), 0u);
  ASSERT_TRUE(dev.Write(0, std::string(48, 'x')).ok());
  EXPECT_EQ(dev.blocks_used(), 3u);
  ASSERT_TRUE(dev.Write(1, std::string(16, 'y')).ok());
  EXPECT_EQ(dev.blocks_used(), 3u);  // Rewrite does not add.
}

TEST(BlockDeviceTest, StatsCountAccesses) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock);
  ASSERT_TRUE(dev.Write(0, std::string(32, 'x')).ok());
  std::string out;
  ASSERT_TRUE(dev.Read(0, 2, &out).ok());
  ASSERT_TRUE(dev.Read(1, 1, &out).ok());
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().reads, 2u);
  EXPECT_EQ(dev.stats().blocks_written, 2u);
  EXPECT_EQ(dev.stats().blocks_read, 3u);
  dev.ResetStats();
  EXPECT_EQ(dev.stats().reads, 0u);
}

TEST(BlockDeviceTest, CostModelChargesClock) {
  SimClock clock;
  DeviceCostModel cost;
  cost.seek_base = 100;
  cost.seek_per_block = 1.0;
  cost.rotational_latency = 10;
  cost.transfer_per_block = 5;
  BlockDevice dev("d", 100, 16, cost, false, &clock);
  std::string out;
  // Head at 0; read block 20, 2 blocks: seek 100+20, rot 10, xfer 10.
  ASSERT_TRUE(dev.Read(20, 2, &out).ok());
  EXPECT_EQ(clock.Now(), 100 + 20 + 10 + 10);
  // Head now at 22; sequential read at 22: no seek.
  const Micros before = clock.Now();
  ASSERT_TRUE(dev.Read(22, 1, &out).ok());
  EXPECT_EQ(clock.Now() - before, 10 + 5);
}

TEST(BlockDeviceTest, SeekCostCappedAtMax) {
  DeviceCostModel cost;
  cost.seek_base = 10;
  cost.seek_per_block = 1.0;
  cost.seek_max = 50;
  EXPECT_EQ(cost.SeekCost(0, 1000), 50);
  EXPECT_EQ(cost.SeekCost(0, 0), 0);
  EXPECT_EQ(cost.SeekCost(0, 20), 30);
}

TEST(BlockDeviceTest, EstimateMatchesActualCharge) {
  SimClock clock;
  BlockDevice dev("d", 1000, 16, DeviceCostModel::OpticalDisk(), false,
                  &clock);
  const Micros est = dev.EstimateServiceTime(500, 4);
  std::string out;
  const Micros before = clock.Now();
  ASSERT_TRUE(dev.Read(500, 4, &out).ok());
  EXPECT_EQ(clock.Now() - before, est);
}

TEST(BlockDeviceTest, OpticalSlowerThanMagnetic) {
  const DeviceCostModel opt = DeviceCostModel::OpticalDisk();
  const DeviceCostModel mag = DeviceCostModel::MagneticDisk();
  const Micros opt_cost = opt.SeekCost(0, 10000) + opt.rotational_latency +
                          opt.TransferCost(100);
  const Micros mag_cost = mag.SeekCost(0, 10000) + mag.rotational_latency +
                          mag.TransferCost(100);
  EXPECT_GT(opt_cost, mag_cost);
}

TEST(BlockDeviceTest, NearSeekTierCheapensShortMoves) {
  DeviceCostModel cost = DeviceCostModel::OpticalDisk();
  ASSERT_GT(cost.near_seek_threshold, 0u);
  // Within the tier: flat track-to-track cost.
  EXPECT_EQ(cost.SeekCost(100, 100 + cost.near_seek_threshold),
            cost.near_seek_cost);
  EXPECT_EQ(cost.SeekCost(100, 101), cost.near_seek_cost);
  // Beyond the tier: the actuator model applies and is far costlier.
  EXPECT_GT(cost.SeekCost(100, 100 + cost.near_seek_threshold + 1),
            10 * cost.near_seek_cost);
  // Zero-distance seeks stay free.
  EXPECT_EQ(cost.SeekCost(100, 100), 0);
}

TEST(BlockDeviceTest, NearSeekTierDisabledByDefaultModels) {
  DeviceCostModel custom;
  custom.seek_base = 100;
  custom.seek_per_block = 1.0;
  // near_seek_threshold defaults to 0: the tier never applies.
  EXPECT_EQ(custom.SeekCost(0, 1), 101);
}

TEST(BlockDeviceTest, SeeksCountedOnlyOnMove) {
  SimClock clock;
  BlockDevice dev("d", 100, 16, DeviceCostModel::MagneticDisk(), false,
                  &clock);
  std::string out;
  ASSERT_TRUE(dev.Read(10, 2, &out).ok());   // Seek from 0 to 10.
  ASSERT_TRUE(dev.Read(12, 1, &out).ok());   // Sequential: no seek.
  ASSERT_TRUE(dev.Read(0, 1, &out).ok());    // Seek back.
  EXPECT_EQ(dev.stats().seeks, 2u);
}

// `block + count` wraps past 2^64 in each of these; a range check that
// adds them lets the access through and indexes outside the device.
TEST(BlockDeviceTest, ReadRangeCheckDoesNotWrap) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock);
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::string out;
  EXPECT_TRUE(dev.Read(kMax, 2, &out).IsOutOfRange());
  EXPECT_TRUE(dev.Read(kMax - 62, 64, &out).IsOutOfRange());
  EXPECT_TRUE(dev.Read(1, kMax, &out).IsOutOfRange());
  EXPECT_EQ(dev.stats().reads, 0u);
  EXPECT_EQ(clock.Now(), 0);
}

TEST(BlockDeviceTest, WriteRangeCheckDoesNotWrap) {
  SimClock clock;
  BlockDevice dev = MakeDevice(&clock);
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_TRUE(dev.Write(kMax, std::string(16, 'a')).IsOutOfRange());
  EXPECT_TRUE(dev.Write(kMax - 1, std::string(48, 'b')).IsOutOfRange());
  EXPECT_EQ(dev.stats().writes, 0u);
  EXPECT_EQ(dev.blocks_used(), 0u);
}

// Random writes and reads across many storage chunks, checked against a
// plain per-block model in which unwritten blocks are zeros.
TEST(BlockDeviceTest, RandomAccessMatchesPerBlockModel) {
  SimClock clock;
  constexpr uint64_t kBlocks = 1000;
  constexpr uint32_t kBlockSize = 8;
  BlockDevice dev("d", kBlocks, kBlockSize, DeviceCostModel::Instant(),
                  /*write_once=*/false, &clock);
  std::vector<std::string> model(kBlocks, std::string(kBlockSize, '\0'));
  Random rng(23);
  std::string out;
  for (int step = 0; step < 2000; ++step) {
    const uint64_t count = 1 + rng.Uniform(150);
    const uint64_t block = rng.Uniform(kBlocks - count + 1);
    if (rng.Bernoulli(0.4)) {
      std::string data(count * kBlockSize, '\0');
      for (char& ch : data) ch = static_cast<char>(rng.Uniform(256));
      ASSERT_TRUE(dev.Write(block, data).ok());
      for (uint64_t i = 0; i < count; ++i) {
        model[block + i] = data.substr(i * kBlockSize, kBlockSize);
      }
    } else {
      ASSERT_TRUE(dev.Read(block, count, &out).ok());
      std::string expected;
      for (uint64_t i = 0; i < count; ++i) expected += model[block + i];
      ASSERT_EQ(out, expected) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace minos::storage
