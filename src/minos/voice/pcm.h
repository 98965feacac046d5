#ifndef MINOS_VOICE_PCM_H_
#define MINOS_VOICE_PCM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "minos/util/clock.h"

namespace minos::voice {

/// Half-open sample range [begin, end) within a PCM buffer. The voice-side
/// analogue of text::TextSpan: where text positions are character offsets,
/// voice positions are sample offsets.
struct SampleSpan {
  size_t begin = 0;
  size_t end = 0;

  size_t length() const { return end - begin; }
  bool Contains(size_t pos) const { return pos >= begin && pos < end; }
  friend bool operator==(const SampleSpan&, const SampleSpan&) = default;
};

/// A buffer of digitized voice. The original MINOS digitized real speech;
/// we synthesize PCM with realistic energy structure (see
/// SpeechSynthesizer) so that pause detection and browsing operate on real
/// sample data. Samples are signed 16-bit mono.
class PcmBuffer {
 public:
  /// Creates an empty buffer at `sample_rate` Hz (must be > 0).
  explicit PcmBuffer(int sample_rate = 8000) : sample_rate_(sample_rate) {}

  /// Creates a buffer at `sample_rate` Hz holding `samples`.
  PcmBuffer(int sample_rate, std::vector<int16_t> samples)
      : sample_rate_(sample_rate), samples_(std::move(samples)) {}

  /// Appends samples.
  void Append(const std::vector<int16_t>& samples);

  /// Appends `count` copies of `value` (silence when value == 0).
  void AppendConstant(size_t count, int16_t value);

  /// Appends one sample.
  void Push(int16_t sample) { samples_.push_back(sample); }

  int sample_rate() const { return sample_rate_; }
  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  int16_t sample(size_t i) const { return samples_[i]; }
  const std::vector<int16_t>& samples() const { return samples_; }

  /// Total duration of the buffer.
  Micros Duration() const { return SamplesToMicros(samples_.size()); }

  /// Converts a sample count/offset to simulated time.
  Micros SamplesToMicros(size_t n) const {
    return static_cast<Micros>(n) * 1000000 / sample_rate_;
  }

  /// Converts a duration to a sample count (truncating).
  size_t MicrosToSamples(Micros us) const {
    return static_cast<size_t>(us * sample_rate_ / 1000000);
  }

  /// Root-mean-square energy of `span` (0 for an empty span), normalized
  /// to [0, 1] against full scale. The sum of squares is exact at any
  /// length; the result equals a double-precision sum of the normalized
  /// squares for spans of up to 2^23 samples, where that sum is exact too.
  double RmsEnergy(SampleSpan span) const;

 private:
  int sample_rate_;
  std::vector<int16_t> samples_;
};

}  // namespace minos::voice

#endif  // MINOS_VOICE_PCM_H_
