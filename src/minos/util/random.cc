#include "minos/util/random.h"

namespace minos {

uint64_t Random::Next64() {
  state_ += kIncrement;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Random::Uniform(uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const uint64_t r = Next64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Random::UniformRange(int64_t lo, int64_t hi) {
  if (lo >= hi) return lo;
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Uniform(span));
}

double Random::NextDouble() {
  return static_cast<double>(Next64() >> 11) * (1.0 / 9007199254740992.0);
}

bool Random::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Random::Gaussian(double mean, double stddev) {
  double sum = 0.0;
  for (int i = 0; i < 12; ++i) sum += NextDouble();
  return mean + stddev * (sum - 6.0);
}

}  // namespace minos
