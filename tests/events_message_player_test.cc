#include <gtest/gtest.h>

#include "minos/core/events.h"
#include "minos/core/message_player.h"
#include "minos/util/random.h"
#include "minos/util/string_util.h"

namespace minos::core {
namespace {

TEST(EventLogTest, RecordsInOrder) {
  EventLog log;
  log.Add(EventKind::kPageShown, 100, 1, "");
  log.Add(EventKind::kVoicePlayed, 200, 0, "to 500");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].kind, EventKind::kPageShown);
  EXPECT_EQ(log.events()[1].at, 200);
  EXPECT_EQ(log.events()[1].detail, "to 500");
}

TEST(EventLogTest, OfKindFilters) {
  EventLog log;
  log.Add(EventKind::kPageShown, 1, 1, "");
  log.Add(EventKind::kTourStop, 2, 0, "");
  log.Add(EventKind::kPageShown, 3, 2, "");
  const auto pages = log.OfKind(EventKind::kPageShown);
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[1].value, 2);
  EXPECT_TRUE(log.OfKind(EventKind::kRewound).empty());
}

TEST(EventLogTest, ToStringStableFormat) {
  EventLog log;
  log.Add(EventKind::kUnitReached, 42, 7, "chapter");
  EXPECT_EQ(log.ToString(), "42 unit-reached 7 chapter\n");
}

TEST(EventLogTest, DigestStableAndSensitive) {
  EventLog a, b;
  a.Add(EventKind::kPageShown, 1, 1, "");
  b.Add(EventKind::kPageShown, 1, 1, "");
  EXPECT_EQ(a.Digest(), b.Digest());
  b.Add(EventKind::kPageShown, 2, 2, "");
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(EventLogTest, ClearEmpties) {
  EventLog log;
  log.Add(EventKind::kPageShown, 1, 1, "");
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(EventLogTest, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(EventKind::kRewound); ++k) {
    EXPECT_STRNE(EventKindName(static_cast<EventKind>(k)), "?");
  }
}

TEST(MessagePlayerTest, PlayAdvancesClockByAudioDuration) {
  SimClock clock;
  MessagePlayer player(&clock, voice::SpeakerParams{});
  EventLog log;
  const Micros duration =
      player.Play("a short message", &log, EventKind::kVoiceMessagePlayed, 3);
  EXPECT_GT(duration, 0);
  EXPECT_EQ(clock.Now(), duration);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.events()[0].at, 0);  // Logged at the start of playback.
  EXPECT_EQ(log.events()[0].value, 3);
  EXPECT_EQ(log.events()[0].detail, "a short message");
}

TEST(MessagePlayerTest, DurationMatchesPlay) {
  SimClock clock;
  MessagePlayer player(&clock, voice::SpeakerParams{});
  const Micros estimated = player.DurationOf("hello there friend");
  const Micros played =
      player.Play("hello there friend", nullptr, EventKind::kLabelPlayed, 0);
  EXPECT_EQ(estimated, played);
}

TEST(MessagePlayerTest, LongerTranscriptTakesLonger) {
  SimClock clock;
  MessagePlayer player(&clock, voice::SpeakerParams{});
  EXPECT_GT(player.DurationOf("one two three four five six seven"),
            player.DurationOf("one"));
}

TEST(MessagePlayerTest, NullLogIsSafe) {
  SimClock clock;
  MessagePlayer player(&clock, voice::SpeakerParams{});
  EXPECT_GT(player.Play("msg", nullptr, EventKind::kLabelPlayed, 0), 0);
}

TEST(MessagePlayerTest, EmptyTranscriptIsInstant) {
  SimClock clock;
  MessagePlayer player(&clock, voice::SpeakerParams{});
  EXPECT_EQ(player.DurationOf(""), 0);
}

// DurationOf counts samples from the synthesizer's length draws instead
// of synthesizing; on random transcripts, speakers and sample rates it
// must equal the duration of the PCM SynthesizeWords emits.
TEST(MessagePlayerTest, DurationOfEqualsSynthesizedDuration) {
  Random rng(1986);
  const int rates[] = {4000, 8000, 11025, 16000};
  for (int c = 0; c < 1000; ++c) {
    voice::SpeakerParams speaker;
    speaker.seed = rng.Next64();
    speaker.jitter = rng.NextDouble() * 0.6;
    speaker.sample_rate = rates[rng.Uniform(4)];
    std::string transcript;
    const uint64_t words = rng.Uniform(7);
    for (uint64_t w = 0; w < words; ++w) {
      if (w > 0) transcript += ' ';
      const uint64_t letters = 1 + rng.Uniform(12);
      for (uint64_t i = 0; i < letters; ++i) {
        transcript += static_cast<char>('a' + rng.Uniform(26));
      }
    }
    const std::vector<std::string> split = SplitWords(transcript);
    const voice::SpeechSynthesizer synthesizer(speaker);
    const voice::VoiceTrack track = synthesizer.SynthesizeWords(split);
    SimClock clock;
    const MessagePlayer player(&clock, speaker);
    ASSERT_EQ(synthesizer.SampleCount(split), track.pcm.size())
        << "case " << c << " transcript '" << transcript << "'";
    ASSERT_EQ(player.DurationOf(transcript), track.pcm.Duration())
        << "case " << c << " transcript '" << transcript << "'";
  }
}

}  // namespace
}  // namespace minos::core
