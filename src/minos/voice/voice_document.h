#ifndef MINOS_VOICE_VOICE_DOCUMENT_H_
#define MINOS_VOICE_VOICE_DOCUMENT_H_

#include <string>
#include <vector>

#include "minos/text/document.h"
#include "minos/util/statusor.h"
#include "minos/voice/synthesizer.h"

namespace minos::voice {

/// How much manual structural editing a voice part received at insertion
/// time. "The degree of desired editing varies according to the importance
/// of information. For example, in a certain object, only identification
/// of chapters may be desirable. In another, identification of chapters
/// and sections and paragraphs may be desirable." (§2)
enum class EditingLevel : uint8_t {
  kNone = 0,       ///< No logical components tagged.
  kChapters = 1,   ///< Only chapter boundaries pressed.
  kSections = 2,   ///< Chapters + sections.
  kParagraphs = 3, ///< Chapters + sections + paragraphs.
  kFull = 4,       ///< Everything down to sentences.
};

/// One tagged logical component of a voice part, over sample offsets —
/// the voice mirror of text::LogicalComponent.
struct VoiceComponent {
  text::LogicalUnit unit = text::LogicalUnit::kParagraph;
  SampleSpan span;
  std::string title;
};

/// A voice segment with its logical structure: the voice-side counterpart
/// of text::Document, providing the *same* logical browsing queries over
/// sample offsets that Document provides over character offsets. This
/// one-to-one API correspondence is the paper's symmetry requirement made
/// concrete.
class VoiceDocument {
 public:
  /// Takes ownership of the synthesized (or digitized) track.
  explicit VoiceDocument(VoiceTrack track) : track_(std::move(track)) {}

  /// Manual tagging: the user pressing the chapter/section/... button at
  /// insertion time (§2). Components must be added in document order.
  void TagComponent(text::LogicalUnit unit, SampleSpan span,
                    std::string title);

  /// Simulates manual editing to `level` using the source document and
  /// the synthesis alignment: each text component whose unit is enabled
  /// at `level` is mapped to the sample range of its spoken words.
  void TagFromAlignment(const text::Document& doc, EditingLevel level);

  /// Appends `more` to the track — the voice mirror of
  /// text::Document::AppendText. Its word and silence spans are
  /// relative to its own samples and shift past the existing ones; its
  /// word text offsets shift by `text_base`. Tagged components stay.
  void AppendTrack(const VoiceTrack& more, size_t text_base);

  /// The underlying audio.
  const VoiceTrack& track() const { return track_; }
  const PcmBuffer& pcm() const { return track_.pcm; }

  /// Logical queries, mirroring text::Document ------------------------

  const std::vector<VoiceComponent>& Components(
      text::LogicalUnit unit) const;
  bool HasUnit(text::LogicalUnit unit) const {
    return !Components(unit).empty();
  }
  StatusOr<size_t> NextUnitStart(text::LogicalUnit unit, size_t pos) const;
  StatusOr<size_t> PreviousUnitStart(text::LogicalUnit unit,
                                     size_t pos) const;
  StatusOr<VoiceComponent> EnclosingUnit(text::LogicalUnit unit,
                                         size_t pos) const;

  /// Cross-media position mapping (exact, from the synthesis alignment;
  /// used by the symmetry experiments and by relevances that link voice
  /// segments to text segments) ---------------------------------------

  /// Character offset spoken at sample `pos` (the nearest word at or
  /// before `pos`). NotFound for an empty track.
  StatusOr<size_t> TextOffsetForSample(size_t pos) const;

  /// First sample of the word containing character `offset` (the nearest
  /// word at or before `offset`). NotFound for an empty track.
  StatusOr<size_t> SampleForTextOffset(size_t offset) const;

 private:
  VoiceTrack track_;
  std::vector<VoiceComponent> components_[8];
};

}  // namespace minos::voice

#endif  // MINOS_VOICE_VOICE_DOCUMENT_H_
