#include "minos/voice/synthesizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

namespace minos::voice {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

size_t SpeechSynthesizer::WordSamples(const std::string& word,
                                      Random* rng) const {
  double ms = std::max(params_.word_min_ms,
                       params_.ms_per_char * static_cast<double>(word.size()));
  ms = std::max(20.0, rng->Gaussian(ms, ms * params_.jitter));
  return static_cast<size_t>(ms * params_.sample_rate / 1000.0);
}

size_t SpeechSynthesizer::SilenceSamples(double mean_ms, Random* rng) const {
  double ms = rng->Gaussian(mean_ms, mean_ms * params_.jitter);
  ms = std::max(10.0, ms);
  return static_cast<size_t>(ms * params_.sample_rate / 1000.0);
}

void SpeechSynthesizer::EmitWord(const std::string& word,
                                 size_t text_offset, Random* rng,
                                 VoiceTrack* track) const {
  const size_t n = WordSamples(word, rng);
  const size_t begin = track->pcm.size();
  // A voiced burst: tone whose pitch depends on the word hash, with an
  // attack/decay envelope and the speaker's noise floor on top.
  const double freq =
      120.0 + static_cast<double>((std::hash<std::string>{}(word)) % 160);
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / params_.sample_rate;
    const double pos = static_cast<double>(i) / static_cast<double>(n);
    const double envelope = std::sin(kPi * pos);  // Attack then decay.
    double s = params_.voice_amplitude * envelope *
               std::sin(2.0 * kPi * freq * t);
    // One noise draw per sample, in words and silences alike: SampleCount
    // skips exactly that many.
    s += params_.noise_floor * (rng->NextDouble() * 2.0 - 1.0);
    const double clamped = std::clamp(s, -1.0, 1.0);
    track->pcm.Push(static_cast<int16_t>(clamped * 32000.0));
  }
  WordAlignment wa;
  wa.word = word;
  wa.text_offset = text_offset;
  wa.samples = SampleSpan{begin, track->pcm.size()};
  track->words.push_back(std::move(wa));
}

void SpeechSynthesizer::EmitSilence(double mean_ms, int level, Random* rng,
                                    VoiceTrack* track) const {
  const size_t n = SilenceSamples(mean_ms, rng);
  const size_t begin = track->pcm.size();
  for (size_t i = 0; i < n; ++i) {
    const double s = params_.noise_floor * (rng->NextDouble() * 2.0 - 1.0);
    track->pcm.Push(static_cast<int16_t>(s * 32000.0));
  }
  track->silences.push_back(SilenceTruth{{begin, track->pcm.size()}, level});
}

StatusOr<VoiceTrack> SpeechSynthesizer::Synthesize(
    const text::Document& doc) const {
  using text::LogicalUnit;
  const auto& words = doc.Components(LogicalUnit::kWord);
  if (words.empty()) {
    return Status::InvalidArgument(
        "document has no word components; call DeriveFineStructure()");
  }
  Random rng(params_.seed);
  VoiceTrack track;
  track.pcm = PcmBuffer(params_.sample_rate);

  // Boundary sets: the silence after a word is paragraph-level when the
  // next word starts a new paragraph, sentence-level when it starts a new
  // sentence (spans also end exactly at the last word of the unit, so the
  // end-offset check covers documents with trailing punctuation quirks).
  std::set<size_t> sentence_starts, sentence_ends;
  std::set<size_t> paragraph_starts, paragraph_ends;
  for (const auto& s : doc.Components(LogicalUnit::kSentence)) {
    sentence_starts.insert(s.span.begin);
    sentence_ends.insert(s.span.end);
  }
  for (const auto& p : doc.Components(LogicalUnit::kParagraph)) {
    paragraph_starts.insert(p.span.begin);
    paragraph_ends.insert(p.span.end);
  }

  for (size_t i = 0; i < words.size(); ++i) {
    const auto& w = words[i];
    EmitWord(doc.contents().substr(w.span.begin, w.span.length()),
             w.span.begin, &rng, &track);
    if (i + 1 == words.size()) break;
    const size_t next_begin = words[i + 1].span.begin;
    int level = 0;
    if (paragraph_ends.count(w.span.end) > 0 ||
        paragraph_starts.count(next_begin) > 0) {
      level = 2;
    } else if (sentence_ends.count(w.span.end) > 0 ||
               sentence_starts.count(next_begin) > 0) {
      level = 1;
    }
    const double mean = level == 2   ? params_.paragraph_pause_ms
                        : level == 1 ? params_.sentence_pause_ms
                                     : params_.word_pause_ms;
    EmitSilence(mean, level, &rng, &track);
  }
  return track;
}

VoiceTrack SpeechSynthesizer::SynthesizeWords(
    const std::vector<std::string>& words) const {
  Random rng(params_.seed);
  VoiceTrack track;
  track.pcm = PcmBuffer(params_.sample_rate);
  for (size_t i = 0; i < words.size(); ++i) {
    EmitWord(words[i], 0, &rng, &track);
    if (i + 1 < words.size()) {
      EmitSilence(params_.word_pause_ms, 0, &rng, &track);
    }
  }
  return track;
}

size_t SpeechSynthesizer::SampleCount(
    const std::vector<std::string>& words) const {
  Random rng(params_.seed);
  size_t total = 0;
  for (size_t i = 0; i < words.size(); ++i) {
    const size_t word = WordSamples(words[i], &rng);
    rng.Skip(word);
    total += word;
    if (i + 1 < words.size()) {
      const size_t silence = SilenceSamples(params_.word_pause_ms, &rng);
      rng.Skip(silence);
      total += silence;
    }
  }
  return total;
}

}  // namespace minos::voice
