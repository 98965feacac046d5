#include "minos/voice/pcm.h"

#include <algorithm>
#include <cmath>

namespace minos::voice {

void PcmBuffer::Append(const std::vector<int16_t>& samples) {
  samples_.insert(samples_.end(), samples.begin(), samples.end());
}

void PcmBuffer::AppendConstant(size_t count, int16_t value) {
  samples_.insert(samples_.end(), count, value);
}

double PcmBuffer::RmsEnergy(SampleSpan span) const {
  span.end = std::min(span.end, samples_.size());
  if (span.begin >= span.end) return 0.0;
  // Integer squares summed exactly, normalized once by full scale
  // squared (2^30).
  int64_t sum = 0;
  for (size_t i = span.begin; i < span.end; ++i) {
    const int32_t s = samples_[i];
    sum += s * s;
  }
  const double normalized = static_cast<double>(sum) / 1073741824.0;
  return std::sqrt(normalized / static_cast<double>(span.length()));
}

}  // namespace minos::voice
