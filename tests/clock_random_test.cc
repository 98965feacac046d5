#include <gtest/gtest.h>

#include "minos/util/clock.h"
#include "minos/util/random.h"

namespace minos {
namespace {

TEST(SimClockTest, StartsAtZeroByDefault) {
  SimClock clock;
  EXPECT_EQ(clock.Now(), 0);
}

TEST(SimClockTest, StartsAtGivenTime) {
  SimClock clock(1000);
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(SimClockTest, SleepAdvances) {
  SimClock clock;
  clock.Sleep(250);
  clock.Sleep(750);
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(SimClockTest, NegativeSleepIgnored) {
  SimClock clock(10);
  clock.Sleep(-5);
  EXPECT_EQ(clock.Now(), 10);
}

TEST(SimClockTest, AdvanceToNeverGoesBackward) {
  SimClock clock(100);
  clock.AdvanceTo(50);
  EXPECT_EQ(clock.Now(), 100);
  clock.AdvanceTo(200);
  EXPECT_EQ(clock.Now(), 200);
}

TEST(ClockConversionTest, UnitHelpers) {
  EXPECT_EQ(MillisToMicros(3), 3000);
  EXPECT_EQ(SecondsToMicros(2), 2000000);
  EXPECT_EQ(MicrosToMillis(2500), 2);
  EXPECT_DOUBLE_EQ(MicrosToSeconds(1500000), 1.5);
}

TEST(WallClockTest, MonotonicNow) {
  WallClock clock;
  const Micros a = clock.Now();
  const Micros b = clock.Now();
  EXPECT_GE(b, a);
}

TEST(RandomTest, DeterministicFromSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformWithinBound) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
  EXPECT_EQ(rng.Uniform(0), 0u);
  EXPECT_EQ(rng.Uniform(1), 0u);
}

TEST(RandomTest, UniformRangeInclusive) {
  Random rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.UniformRange(5, 5), 5);
  EXPECT_EQ(rng.UniformRange(5, 4), 5);  // Degenerate: returns lo.
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliRate) {
  Random rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RandomTest, GaussianMoments) {
  Random rng(19);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian(10.0, 2.0);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RandomTest, SkipEqualsRepeatedNext64) {
  Random picker(29);
  const uint64_t counts[] = {0, 1, 2, 17, 4096, picker.Uniform(100000)};
  const uint64_t seeds[] = {0, 1, picker.Next64()};
  for (uint64_t n : counts) {
    for (uint64_t seed : seeds) {
      Random skipped(seed);
      Random drawn(seed);
      skipped.Skip(n);
      for (uint64_t i = 0; i < n; ++i) drawn.Next64();
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(skipped.Next64(), drawn.Next64())
            << "n " << n << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace minos
