#include "minos/core/message_player.h"

#include "minos/util/string_util.h"

namespace minos::core {

Micros MessagePlayer::Play(const std::string& transcript, EventLog* log,
                           EventKind kind, int64_t value) {
  const Micros duration = DurationOf(transcript);
  if (log != nullptr) log->Add(kind, clock_->Now(), value, transcript);
  clock_->Advance(duration);
  return duration;
}

Micros MessagePlayer::DurationOf(const std::string& transcript) const {
  const size_t samples = synthesizer_.SampleCount(SplitWords(transcript));
  const voice::PcmBuffer format(synthesizer_.params().sample_rate);
  return format.SamplesToMicros(samples);
}

}  // namespace minos::core
