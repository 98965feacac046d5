#ifndef MINOS_CORE_MESSAGE_PLAYER_H_
#define MINOS_CORE_MESSAGE_PLAYER_H_

#include <string>

#include "minos/core/events.h"
#include "minos/util/clock.h"
#include "minos/voice/synthesizer.h"

namespace minos::core {

/// Plays short voice logical messages and labels. Messages are stored as
/// transcripts; playing one advances simulated time by the duration the
/// message speaker's synthesis of it lasts — exactly the cost a real
/// playback would impose on the presentation timeline. The duration is
/// counted from the synthesizer's length draws; no PCM is produced.
class MessagePlayer {
 public:
  /// `clock` must outlive the player.
  MessagePlayer(SimClock* clock, voice::SpeakerParams speaker)
      : clock_(clock), synthesizer_(speaker) {}

  /// Synthesizes and "plays" `transcript`; logs `kind` with `value` and
  /// the transcript as detail. Returns the playback duration.
  Micros Play(const std::string& transcript, EventLog* log, EventKind kind,
              int64_t value);

  /// Duration `transcript` would take without playing it.
  Micros DurationOf(const std::string& transcript) const;

 private:
  SimClock* clock_;
  voice::SpeechSynthesizer synthesizer_;
};

}  // namespace minos::core

#endif  // MINOS_CORE_MESSAGE_PLAYER_H_
