#include "minos/object/multimedia_object.h"

#include "minos/object/part_codec.h"
#include "minos/storage/composition_file.h"
#include "minos/util/coding.h"

namespace minos::object {

using storage::CompositionFile;
using storage::DataType;

Status MultimediaObject::CheckEditable() const {
  if (state_ != ObjectState::kEditing) {
    return Status::FailedPrecondition(
        "object is archived and cannot be modified");
  }
  return Status::OK();
}

Status MultimediaObject::SetAttribute(std::string name, std::string value) {
  MINOS_RETURN_IF_ERROR(CheckEditable());
  attributes_[std::move(name)] = std::move(value);
  return Status::OK();
}

StatusOr<std::string> MultimediaObject::GetAttribute(
    std::string_view name) const {
  auto it = attributes_.find(name);
  if (it == attributes_.end()) {
    return Status::NotFound("no attribute '" + std::string(name) + "'");
  }
  return it->second;
}

Status MultimediaObject::SetTextPart(text::Document doc) {
  MINOS_RETURN_IF_ERROR(CheckEditable());
  text_ = std::move(doc);
  return Status::OK();
}

Status MultimediaObject::SetVoicePart(voice::VoiceDocument doc) {
  MINOS_RETURN_IF_ERROR(CheckEditable());
  voice_ = std::move(doc);
  return Status::OK();
}

StatusOr<uint32_t> MultimediaObject::AddImage(image::Image img) {
  MINOS_RETURN_IF_ERROR(CheckEditable());
  images_.push_back(std::move(img));
  return static_cast<uint32_t>(images_.size() - 1);
}

Status MultimediaObject::ValidateDescriptor() const {
  const uint32_t image_count = static_cast<uint32_t>(images_.size());
  const uint64_t text_size = text_ ? text_->size() : 0;
  const uint64_t voice_size = voice_ ? voice_->pcm().size() : 0;

  auto check_image = [&](const std::optional<uint32_t>& idx,
                         const char* what) -> Status {
    if (idx.has_value() && *idx >= image_count) {
      return Status::InvalidArgument(std::string(what) +
                                     " references a missing image");
    }
    return Status::OK();
  };
  auto check_text = [&](const std::optional<TextAnchor>& a,
                        const char* what) -> Status {
    if (a.has_value() && a->end > text_size) {
      return Status::InvalidArgument(std::string(what) +
                                     " text anchor past end of text part");
    }
    return Status::OK();
  };
  auto check_voice = [&](const std::optional<VoiceAnchor>& a,
                         const char* what) -> Status {
    if (a.has_value() && a->end > voice_size) {
      return Status::InvalidArgument(std::string(what) +
                                     " voice anchor past end of voice part");
    }
    return Status::OK();
  };

  for (const VisualPageSpec& page : descriptor_.pages) {
    for (const PlacedImage& pi : page.images) {
      if (pi.image_index >= image_count) {
        return Status::InvalidArgument(
            "page places a missing image");
      }
    }
  }
  for (const VoiceLogicalMessage& m : descriptor_.voice_messages) {
    MINOS_RETURN_IF_ERROR(check_text(m.text_anchor, "voice message"));
    MINOS_RETURN_IF_ERROR(check_image(m.image_index, "voice message"));
    MINOS_RETURN_IF_ERROR(check_voice(m.voice_anchor, "voice message"));
  }
  for (const VisualLogicalMessage& m : descriptor_.visual_messages) {
    MINOS_RETURN_IF_ERROR(check_image(m.image_index, "visual message"));
    for (const TextAnchor& a : m.text_anchors) {
      MINOS_RETURN_IF_ERROR(check_text(a, "visual message"));
    }
    for (const VoiceAnchor& a : m.voice_anchors) {
      MINOS_RETURN_IF_ERROR(check_voice(a, "visual message"));
    }
  }
  const uint32_t page_count =
      static_cast<uint32_t>(descriptor_.pages.size());
  for (const TransparencySetSpec& t : descriptor_.transparency_sets) {
    if (t.first_page + t.count > page_count || t.count == 0) {
      return Status::InvalidArgument("transparency set page range invalid");
    }
    for (uint32_t p = t.first_page; p < t.first_page + t.count; ++p) {
      if (descriptor_.pages[p].kind != VisualPageSpec::Kind::kTransparency) {
        return Status::InvalidArgument(
            "transparency set covers a non-transparency page");
      }
    }
  }
  for (const ProcessSimulationSpec& p : descriptor_.process_simulations) {
    if (p.first_page + p.count > page_count || p.count == 0) {
      return Status::InvalidArgument(
          "process simulation page range invalid");
    }
    if (!p.page_messages.empty() && p.page_messages.size() != p.count) {
      return Status::InvalidArgument(
          "process simulation message count mismatch");
    }
  }
  for (const RelevantObjectLink& r : descriptor_.relevant_objects) {
    MINOS_RETURN_IF_ERROR(
        check_text(r.parent_text_anchor, "relevant object link"));
    MINOS_RETURN_IF_ERROR(
        check_voice(r.parent_voice_anchor, "relevant object link"));
    MINOS_RETURN_IF_ERROR(
        check_image(r.parent_image_index, "relevant object link"));
  }
  for (const ObjectDescriptor::TourSpec& t : descriptor_.tours) {
    if (t.image_index >= image_count) {
      return Status::InvalidArgument("tour references a missing image");
    }
    if (!t.audio_messages.empty() &&
        t.audio_messages.size() != t.positions.size()) {
      return Status::InvalidArgument("tour message count mismatch");
    }
  }
  if (descriptor_.driving_mode == DrivingMode::kAudio && !voice_) {
    return Status::InvalidArgument(
        "audio driving mode requires a voice part");
  }
  return Status::OK();
}

MultimediaObject MultimediaObject::TakeForEdit() && {
  MultimediaObject next = std::move(*this);
  next.state_ = ObjectState::kEditing;
  return next;
}

Status MultimediaObject::Archive() {
  MINOS_RETURN_IF_ERROR(CheckEditable());
  MINOS_RETURN_IF_ERROR(ValidateDescriptor());
  state_ = ObjectState::kArchived;
  return Status::OK();
}

StatusOr<std::string> MultimediaObject::SerializeArchived() const {
  if (state_ != ObjectState::kArchived) {
    return Status::FailedPrecondition(
        "only archived objects serialize to the archival format");
  }
  // Build the composition file: concatenation of the data parts.
  CompositionFile comp;
  ObjectDescriptor desc = descriptor_;
  desc.parts.clear();

  auto add_part = [&](const std::string& name, DataType type,
                      const std::string& payload) {
    const uint64_t offset = comp.AppendPart(name, type, payload);
    PartPointer p;
    p.name = name;
    p.type = type;
    p.in_archiver = false;
    p.offset = offset;
    p.length = payload.size();
    desc.parts.push_back(std::move(p));
  };

  add_part("attributes", DataType::kAttributes,
           EncodeAttributes(attributes_));
  if (text_) {
    add_part("text", DataType::kText, EncodeDocument(*text_));
  }
  if (voice_) {
    add_part("voice", DataType::kVoice, EncodeVoiceDocument(*voice_));
  }
  for (size_t i = 0; i < images_.size(); ++i) {
    add_part("image:" + std::to_string(i), DataType::kImage,
             images_[i].Serialize());
  }

  std::string out;
  PutLengthPrefixed(&out, desc.Serialize());
  out += comp.Serialize();
  return out;
}

StatusOr<MultimediaObject> MultimediaObject::DeserializeArchived(
    storage::ObjectId id, std::string_view bytes) {
  return DeserializeArchivedImpl(id, bytes, nullptr);
}

StatusOr<MultimediaObject> MultimediaObject::DeserializeArchivedLenient(
    storage::ObjectId id, std::string_view bytes,
    PartSalvageReport* report) {
  return DeserializeArchivedImpl(id, bytes, report);
}

StatusOr<MultimediaObject> MultimediaObject::DeserializeArchivedImpl(
    storage::ObjectId id, std::string_view bytes,
    PartSalvageReport* report) {
  // Every part decodes from a view into `bytes`; none outlives this call.
  Decoder dec(bytes);
  std::string_view desc_bytes;
  MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&desc_bytes));
  MINOS_ASSIGN_OR_RETURN(ObjectDescriptor desc,
                         ObjectDescriptor::Deserialize(desc_bytes));
  std::string_view comp_bytes;
  MINOS_RETURN_IF_ERROR(dec.GetRaw(dec.remaining(), &comp_bytes));
  MINOS_ASSIGN_OR_RETURN(CompositionFile::View comp,
                         CompositionFile::Parse(comp_bytes));

  MultimediaObject obj(id);
  for (const PartPointer& p : desc.parts) {
    if (p.in_archiver) {
      // Mailed-outside objects have all pointers resolved; archived
      // objects with archiver pointers are reassembled by the server.
      return Status::FailedPrecondition(
          "object still has archiver pointers; resolve before decoding");
    }
    MINOS_ASSIGN_OR_RETURN(
        std::string_view payload,
        CompositionFile::Slice(comp.payload, p.offset, p.length));
    switch (p.type) {
      case DataType::kAttributes: {
        StatusOr<AttributeMap> attrs = DecodeAttributes(payload);
        if (!attrs.ok()) {
          // Attributes are query metadata, not presented content: a
          // lenient decode drops them rather than failing the object.
          if (report == nullptr) return attrs.status();
          report->dropped_parts.push_back(p.name);
          break;
        }
        obj.attributes_ = std::move(attrs).value();
        break;
      }
      case DataType::kText: {
        MINOS_ASSIGN_OR_RETURN(text::Document doc, DecodeDocument(payload));
        obj.text_ = std::move(doc);
        break;
      }
      case DataType::kVoice: {
        StatusOr<voice::VoiceDocument> vdoc = DecodeVoiceDocument(payload);
        if (!vdoc.ok()) {
          // Symmetry's fallback direction: the object survives without
          // its voice part; the presentation manager degrades to text.
          if (report == nullptr) return vdoc.status();
          report->dropped_parts.push_back(p.name);
          break;
        }
        obj.voice_ = std::move(vdoc).value();
        break;
      }
      case DataType::kImage: {
        MINOS_ASSIGN_OR_RETURN(image::Image img,
                               image::Image::Deserialize(payload));
        obj.images_.push_back(std::move(img));
        break;
      }
      default:
        return Status::Corruption("unexpected part type in archive");
    }
  }
  obj.descriptor_ = std::move(desc);
  obj.state_ = ObjectState::kArchived;
  return obj;
}

}  // namespace minos::object
