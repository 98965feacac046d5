#include "minos/voice/voice_document.h"

#include <algorithm>

namespace minos::voice {

using text::LogicalUnit;

void VoiceDocument::TagComponent(LogicalUnit unit, SampleSpan span,
                                 std::string title) {
  VoiceComponent c;
  c.unit = unit;
  c.span = span;
  c.title = std::move(title);
  components_[static_cast<size_t>(unit)].push_back(std::move(c));
}

void VoiceDocument::TagFromAlignment(const text::Document& doc,
                                     EditingLevel level) {
  auto enabled = [&](LogicalUnit unit) {
    switch (unit) {
      case LogicalUnit::kTitle:
      case LogicalUnit::kChapter:
      case LogicalUnit::kReferences:
        return level >= EditingLevel::kChapters;
      case LogicalUnit::kSection:
        return level >= EditingLevel::kSections;
      case LogicalUnit::kParagraph:
        return level >= EditingLevel::kParagraphs;
      case LogicalUnit::kSentence:
        return level >= EditingLevel::kFull;
      default:
        return false;  // Words are never tagged manually.
    }
  };
  const std::vector<WordAlignment>& words = track_.words;
  if (words.empty()) return;
  for (int u = 0; u < 8; ++u) {
    const auto unit = static_cast<LogicalUnit>(u);
    if (!enabled(unit)) continue;
    for (const text::LogicalComponent& c : doc.Components(unit)) {
      // Sample span of the words spoken from this text span.
      size_t begin_sample = 0, end_sample = 0;
      bool any = false;
      for (const WordAlignment& w : words) {
        if (w.text_offset >= c.span.begin && w.text_offset < c.span.end) {
          if (!any) {
            begin_sample = w.samples.begin;
            any = true;
          }
          end_sample = w.samples.end;
        }
      }
      if (any) {
        TagComponent(unit, SampleSpan{begin_sample, end_sample}, c.title);
      }
    }
  }
}

void VoiceDocument::AppendTrack(const VoiceTrack& more, size_t text_base) {
  const size_t sample_base = track_.pcm.size();
  track_.pcm.Append(more.pcm.samples());
  for (WordAlignment w : more.words) {
    w.text_offset += text_base;
    w.samples.begin += sample_base;
    w.samples.end += sample_base;
    track_.words.push_back(std::move(w));
  }
  for (SilenceTruth s : more.silences) {
    s.samples.begin += sample_base;
    s.samples.end += sample_base;
    track_.silences.push_back(s);
  }
}

const std::vector<VoiceComponent>& VoiceDocument::Components(
    LogicalUnit unit) const {
  return components_[static_cast<size_t>(unit)];
}

StatusOr<size_t> VoiceDocument::NextUnitStart(LogicalUnit unit,
                                              size_t pos) const {
  for (const VoiceComponent& c : Components(unit)) {
    if (c.span.begin > pos) return c.span.begin;
  }
  return Status::NotFound(std::string("no next ") +
                          text::LogicalUnitName(unit));
}

StatusOr<size_t> VoiceDocument::PreviousUnitStart(LogicalUnit unit,
                                                  size_t pos) const {
  const auto& cs = Components(unit);
  for (auto it = cs.rbegin(); it != cs.rend(); ++it) {
    if (it->span.begin < pos) return it->span.begin;
  }
  return Status::NotFound(std::string("no previous ") +
                          text::LogicalUnitName(unit));
}

StatusOr<VoiceComponent> VoiceDocument::EnclosingUnit(LogicalUnit unit,
                                                      size_t pos) const {
  for (const VoiceComponent& c : Components(unit)) {
    if (c.span.Contains(pos)) return c;
  }
  return Status::NotFound(std::string("position not inside any ") +
                          text::LogicalUnitName(unit));
}

StatusOr<size_t> VoiceDocument::TextOffsetForSample(size_t pos) const {
  const auto& words = track_.words;
  if (words.empty()) return Status::NotFound("empty voice track");
  const WordAlignment* best = &words.front();
  for (const WordAlignment& w : words) {
    if (w.samples.begin <= pos) {
      best = &w;
    } else {
      break;
    }
  }
  return best->text_offset;
}

StatusOr<size_t> VoiceDocument::SampleForTextOffset(size_t offset) const {
  const auto& words = track_.words;
  if (words.empty()) return Status::NotFound("empty voice track");
  const WordAlignment* best = &words.front();
  for (const WordAlignment& w : words) {
    if (w.text_offset <= offset) {
      best = &w;
    } else {
      break;
    }
  }
  return best->samples.begin;
}

}  // namespace minos::voice
