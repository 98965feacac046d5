#ifndef MINOS_VOICE_SYNTHESIZER_H_
#define MINOS_VOICE_SYNTHESIZER_H_

#include <string>
#include <vector>

#include "minos/text/document.h"
#include "minos/util/random.h"
#include "minos/util/statusor.h"
#include "minos/voice/pcm.h"

namespace minos::voice {

/// Parameters of the synthetic speaker. The reproduction substitutes a
/// deterministic speech synthesizer for the paper's voice digitization
/// hardware: each word becomes an amplitude-modulated tone burst, with
/// silences between words, sentences and paragraphs whose statistics
/// mirror natural speech ("the length of the short pause roughly
/// corresponds to the average length of a pause between word boundaries,
/// while the length of the long pause roughly corresponds to the length of
/// a pause between paragraphs", §2).
struct SpeakerParams {
  int sample_rate = 8000;
  double ms_per_char = 55.0;       ///< Voiced duration per character.
  double word_min_ms = 90.0;       ///< Minimum voiced duration of a word.
  double word_pause_ms = 70.0;     ///< Mean silence between words.
  double sentence_pause_ms = 320.0;  ///< Mean silence between sentences.
  double paragraph_pause_ms = 950.0; ///< Mean silence between paragraphs.
  double jitter = 0.25;            ///< Relative std-dev of all durations.
  double noise_floor = 0.015;      ///< Background noise amplitude [0,1].
  double voice_amplitude = 0.45;   ///< Voiced amplitude [0,1].
  uint64_t seed = 1;               ///< Per-speaker determinism.
};

/// Ground-truth alignment of one spoken word.
struct WordAlignment {
  std::string word;        ///< The token as spoken.
  size_t text_offset = 0;  ///< Character offset in the source document.
  SampleSpan samples;      ///< Where the voiced burst sits in the PCM.
};

/// Ground-truth silence actually emitted between voiced bursts.
struct SilenceTruth {
  SampleSpan samples;
  /// 0 = word boundary, 1 = sentence boundary, 2 = paragraph boundary.
  int level = 0;
};

/// A synthesized voice rendition of a document: the PCM plus the ground
/// truth that lets tests and benches score pause detection and recognition
/// without any circularity (detectors see only the PCM).
struct VoiceTrack {
  PcmBuffer pcm;
  std::vector<WordAlignment> words;
  std::vector<SilenceTruth> silences;
};

/// Renders a text::Document into a VoiceTrack. Using the same Document for
/// the text rendition (TextFormatter) and the voice rendition is what
/// makes the symmetric browsing experiments possible: both media carry the
/// same information with positions linked through `text_offset`.
class SpeechSynthesizer {
 public:
  explicit SpeechSynthesizer(SpeakerParams params) : params_(params) {}

  /// Speaks every word component of `doc` in order, inserting
  /// word/sentence/paragraph silences from the document's logical
  /// structure. The document must have derived fine structure
  /// (InvalidArgument otherwise).
  StatusOr<VoiceTrack> Synthesize(const text::Document& doc) const;

  /// Speaks a bare word list (used for short voice labels and logical
  /// messages that have no document behind them).
  VoiceTrack SynthesizeWords(const std::vector<std::string>& words) const;

  /// Number of samples SynthesizeWords(words) emits, counted without
  /// synthesizing them: the same length draws, each sample's noise draw
  /// skipped.
  size_t SampleCount(const std::vector<std::string>& words) const;

  const SpeakerParams& params() const { return params_; }

 private:
  /// Samples of one voiced `word`; draws its jittered length from `rng`.
  size_t WordSamples(const std::string& word, Random* rng) const;
  /// Samples of one silence of mean `mean_ms`; draws its jittered length
  /// from `rng`.
  size_t SilenceSamples(double mean_ms, Random* rng) const;
  void EmitWord(const std::string& word, size_t text_offset, Random* rng,
                VoiceTrack* track) const;
  void EmitSilence(double mean_ms, int level, Random* rng,
                   VoiceTrack* track) const;

  SpeakerParams params_;
};

}  // namespace minos::voice

#endif  // MINOS_VOICE_SYNTHESIZER_H_
