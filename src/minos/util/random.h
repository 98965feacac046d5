#ifndef MINOS_UTIL_RANDOM_H_
#define MINOS_UTIL_RANDOM_H_

#include <cstdint>

namespace minos {

/// Deterministic pseudo-random generator (SplitMix64 core). Used by the
/// speech synthesizer, workload generators and device models so that every
/// experiment is reproducible from its seed.
class Random {
 public:
  /// Seeds the generator; equal seeds yield equal streams.
  explicit Random(uint64_t seed) : state_(seed + kIncrement) {}

  /// Next raw 64-bit value.
  uint64_t Next64();

  /// Steps past the next `n` draws, as `n` calls of Next64 would.
  void Skip(uint64_t n) { state_ += n * kIncrement; }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Approximately normal deviate with the given mean/stddev
  /// (12-uniform sum method; deterministic and cheap).
  double Gaussian(double mean, double stddev);

 private:
  /// SplitMix64's state step: each draw adds it once.
  static constexpr uint64_t kIncrement = 0x9E3779B97F4A7C15ULL;

  uint64_t state_;
};

}  // namespace minos

#endif  // MINOS_UTIL_RANDOM_H_
