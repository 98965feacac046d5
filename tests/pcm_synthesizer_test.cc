#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "minos/text/markup.h"
#include "minos/util/random.h"
#include "minos/voice/pcm.h"
#include "minos/voice/synthesizer.h"

namespace minos::voice {
namespace {

text::Document ParseOrDie(std::string_view markup) {
  text::MarkupParser parser;
  auto doc = parser.Parse(markup);
  EXPECT_TRUE(doc.ok());
  return std::move(doc).value();
}

TEST(PcmBufferTest, SizeAndDuration) {
  PcmBuffer pcm(8000);
  pcm.AppendConstant(8000, 0);
  EXPECT_EQ(pcm.size(), 8000u);
  EXPECT_EQ(pcm.Duration(), SecondsToMicros(1));
}

TEST(PcmBufferTest, SampleTimeConversions) {
  PcmBuffer pcm(8000);
  EXPECT_EQ(pcm.SamplesToMicros(4000), 500000);
  EXPECT_EQ(pcm.MicrosToSamples(500000), 4000u);
  EXPECT_EQ(pcm.MicrosToSamples(pcm.SamplesToMicros(12345)), 12345u);
}

TEST(PcmBufferTest, RmsEnergyOfSilenceIsZero) {
  PcmBuffer pcm(8000);
  pcm.AppendConstant(100, 0);
  EXPECT_DOUBLE_EQ(pcm.RmsEnergy(SampleSpan{0, 100}), 0.0);
}

TEST(PcmBufferTest, RmsEnergyOfFullScale) {
  PcmBuffer pcm(8000);
  pcm.AppendConstant(100, 32767);
  EXPECT_NEAR(pcm.RmsEnergy(SampleSpan{0, 100}), 1.0, 0.01);
}

TEST(PcmBufferTest, RmsEnergyClampsSpan) {
  PcmBuffer pcm(8000);
  pcm.AppendConstant(10, 16000);
  EXPECT_GT(pcm.RmsEnergy(SampleSpan{0, 1000}), 0.0);
  EXPECT_DOUBLE_EQ(pcm.RmsEnergy(SampleSpan{50, 60}), 0.0);
}

/// RmsEnergy as a double-precision sum of normalized squares: the
/// reference the integer sum must equal bit for bit on frame-sized spans.
double DoubleSumRms(const PcmBuffer& pcm, SampleSpan span) {
  double sum = 0.0;
  for (size_t i = span.begin; i < span.end; ++i) {
    const double s = static_cast<double>(pcm.sample(i)) / 32768.0;
    sum += s * s;
  }
  return std::sqrt(sum / static_cast<double>(span.length()));
}

TEST(PcmBufferTest, RmsEnergyMatchesDoubleSumReference) {
  Random rng(808);
  for (int c = 0; c < 300; ++c) {
    std::vector<int16_t> samples(1 + rng.Uniform(5000));
    const int64_t amplitude = 1 + static_cast<int64_t>(rng.Uniform(32768));
    for (int16_t& s : samples) {
      s = static_cast<int16_t>(rng.UniformRange(-amplitude, amplitude - 1));
    }
    const PcmBuffer pcm(8000, std::move(samples));
    const size_t begin = rng.Uniform(pcm.size());
    const size_t end = begin + 1 + rng.Uniform(pcm.size() - begin);
    const SampleSpan span{begin, end};
    ASSERT_EQ(pcm.RmsEnergy(span), DoubleSumRms(pcm, span)) << "case " << c;
  }
}

TEST(PcmBufferTest, RmsEnergyOfFullScaleNegativeFrames) {
  for (size_t n : {size_t{1}, size_t{80}, size_t{4096}, size_t{1} << 16}) {
    PcmBuffer pcm(8000);
    pcm.AppendConstant(n, -32768);
    const SampleSpan span{0, n};
    EXPECT_EQ(pcm.RmsEnergy(span), DoubleSumRms(pcm, span)) << "n " << n;
    EXPECT_EQ(pcm.RmsEnergy(span), 1.0) << "n " << n;
  }
}

TEST(SampleSpanTest, Contains) {
  SampleSpan span{10, 20};
  EXPECT_TRUE(span.Contains(10));
  EXPECT_FALSE(span.Contains(20));
  EXPECT_EQ(span.length(), 10u);
}

class SynthesizerTest : public ::testing::Test {
 protected:
  SynthesizerTest()
      : doc_(ParseOrDie(
            ".PP\nOne two three. Four five.\n.PP\nSix seven eight.\n")) {}

  text::Document doc_;
};

TEST_F(SynthesizerTest, RequiresFineStructure) {
  text::Document empty;
  SpeechSynthesizer synth{SpeakerParams{}};
  EXPECT_TRUE(synth.Synthesize(empty).status().IsInvalidArgument());
}

TEST_F(SynthesizerTest, OneBurstPerWord) {
  SpeechSynthesizer synth{SpeakerParams{}};
  auto track = synth.Synthesize(doc_);
  ASSERT_TRUE(track.ok());
  EXPECT_EQ(track->words.size(), 8u);
  EXPECT_EQ(track->silences.size(), 7u);  // One between each pair.
}

TEST_F(SynthesizerTest, AlignmentOffsetsMatchDocument) {
  SpeechSynthesizer synth{SpeakerParams{}};
  auto track = synth.Synthesize(doc_);
  ASSERT_TRUE(track.ok());
  const auto& words = doc_.Components(text::LogicalUnit::kWord);
  ASSERT_EQ(words.size(), track->words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(track->words[i].text_offset, words[i].span.begin);
    EXPECT_EQ(track->words[i].word,
              doc_.contents().substr(words[i].span.begin,
                                     words[i].span.length()));
  }
}

TEST_F(SynthesizerTest, WordsAndSilencesTileTheBuffer) {
  SpeechSynthesizer synth{SpeakerParams{}};
  auto track = synth.Synthesize(doc_);
  ASSERT_TRUE(track.ok());
  size_t expect_begin = 0;
  for (size_t i = 0; i < track->words.size(); ++i) {
    EXPECT_EQ(track->words[i].samples.begin, expect_begin);
    expect_begin = track->words[i].samples.end;
    if (i < track->silences.size()) {
      EXPECT_EQ(track->silences[i].samples.begin, expect_begin);
      expect_begin = track->silences[i].samples.end;
    }
  }
  EXPECT_EQ(expect_begin, track->pcm.size());
}

TEST_F(SynthesizerTest, SilenceLevelsFollowStructure) {
  SpeechSynthesizer synth{SpeakerParams{}};
  auto track = synth.Synthesize(doc_);
  ASSERT_TRUE(track.ok());
  // Words: One two three. | Four five. || Six seven eight.
  // Silences after words: 0 0 1(sentence) 0 2(paragraph) 0 0
  ASSERT_EQ(track->silences.size(), 7u);
  EXPECT_EQ(track->silences[0].level, 0);
  EXPECT_EQ(track->silences[1].level, 0);
  EXPECT_EQ(track->silences[2].level, 1);
  EXPECT_EQ(track->silences[3].level, 0);
  EXPECT_EQ(track->silences[4].level, 2);
  EXPECT_EQ(track->silences[5].level, 0);
  EXPECT_EQ(track->silences[6].level, 0);
}

TEST_F(SynthesizerTest, ParagraphSilencesLongerThanWordSilences) {
  SpeakerParams params;
  params.jitter = 0.05;  // Keep the comparison robust.
  SpeechSynthesizer synth(params);
  auto track = synth.Synthesize(doc_);
  ASSERT_TRUE(track.ok());
  size_t word_silence = 0, para_silence = 0;
  for (const SilenceTruth& s : track->silences) {
    if (s.level == 0) {
      word_silence = std::max(word_silence, s.samples.length());
    }
    if (s.level == 2) para_silence = s.samples.length();
  }
  EXPECT_GT(para_silence, word_silence * 3);
}

TEST_F(SynthesizerTest, VoicedLouderThanSilence) {
  SpeechSynthesizer synth{SpeakerParams{}};
  auto track = synth.Synthesize(doc_);
  ASSERT_TRUE(track.ok());
  const double voiced = track->pcm.RmsEnergy(track->words[0].samples);
  const double silent = track->pcm.RmsEnergy(track->silences[0].samples);
  EXPECT_GT(voiced, 10 * silent);
}

TEST_F(SynthesizerTest, DeterministicForSeed) {
  SpeechSynthesizer synth{SpeakerParams{}};
  auto a = synth.Synthesize(doc_);
  auto b = synth.Synthesize(doc_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->pcm.samples(), b->pcm.samples());
}

TEST_F(SynthesizerTest, DifferentSeedsDiffer) {
  SpeakerParams p1, p2;
  p2.seed = 999;
  auto a = SpeechSynthesizer(p1).Synthesize(doc_);
  auto b = SpeechSynthesizer(p2).Synthesize(doc_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->pcm.samples(), b->pcm.samples());
}

TEST(SynthesizeWordsTest, BareWordList) {
  SpeechSynthesizer synth{SpeakerParams{}};
  const VoiceTrack track = synth.SynthesizeWords({"hello", "world"});
  EXPECT_EQ(track.words.size(), 2u);
  EXPECT_EQ(track.silences.size(), 1u);
  EXPECT_GT(track.pcm.size(), 0u);
}

TEST(SynthesizeWordsTest, EmptyListYieldsEmptyTrack) {
  SpeechSynthesizer synth{SpeakerParams{}};
  const VoiceTrack track = synth.SynthesizeWords({});
  EXPECT_TRUE(track.pcm.empty());
}

TEST(SynthesizeWordsTest, LongerWordsLongerBursts) {
  SpeakerParams params;
  params.jitter = 0.0;
  SpeechSynthesizer synth(params);
  const VoiceTrack track =
      synth.SynthesizeWords({"a", "extraordinarily"});
  ASSERT_EQ(track.words.size(), 2u);
  EXPECT_GT(track.words[1].samples.length(),
            track.words[0].samples.length());
}

}  // namespace
}  // namespace minos::voice
