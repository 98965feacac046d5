#include "minos/format/archive_mailer.h"

#include <algorithm>
#include <utility>

#include "minos/object/part_codec.h"
#include "minos/storage/composition_file.h"
#include "minos/util/coding.h"

namespace minos::format {

using object::MultimediaObject;
using object::ObjectDescriptor;
using object::PartPointer;
using storage::ArchiveAddress;
using storage::CompositionFile;
using storage::DataType;

StatusOr<ArchiveAddress> ArchiveMailer::ArchiveObject(
    const MultimediaObject& obj) {
  MINOS_ASSIGN_OR_RETURN(std::string bytes, obj.SerializeArchived());
  return ArchiveBytes(obj.id(), bytes);
}

StatusOr<ArchiveAddress> ArchiveMailer::ArchiveBytes(
    storage::ObjectId id, std::string_view bytes) {
  MINOS_ASSIGN_OR_RETURN(ArchiveAddress addr, archiver_->Append(bytes));
  MINOS_RETURN_IF_ERROR(archiver_->Flush());
  versions_->Record(id, addr, clock_->Now());
  return addr;
}

StatusOr<std::string> ArchiveMailer::SerializeWithArchiverRefs(
    const MultimediaObject& obj,
    const std::map<std::string, ArchiveAddress>& shared_parts) {
  if (obj.state() != object::ObjectState::kArchived) {
    return Status::FailedPrecondition(
        "object must be archived state before serialization");
  }
  CompositionFile comp;
  ObjectDescriptor desc = obj.descriptor();
  desc.parts.clear();

  auto add_part = [&](const std::string& name, DataType type,
                      const std::string& payload) {
    PartPointer p;
    p.name = name;
    p.type = type;
    auto it = shared_parts.find(name);
    if (it != shared_parts.end()) {
      p.in_archiver = true;
      p.offset = it->second.offset;
      p.length = it->second.length;
    } else {
      p.in_archiver = false;
      p.offset = comp.AppendPart(name, type, payload);
      p.length = payload.size();
    }
    desc.parts.push_back(std::move(p));
  };

  add_part("attributes", DataType::kAttributes,
           object::EncodeAttributes(obj.attributes()));
  if (obj.has_text()) {
    add_part("text", DataType::kText,
             object::EncodeDocument(obj.text_part()));
  }
  if (obj.has_voice()) {
    add_part("voice", DataType::kVoice,
             object::EncodeVoiceDocument(obj.voice_part()));
  }
  for (size_t i = 0; i < obj.images().size(); ++i) {
    add_part("image:" + std::to_string(i), DataType::kImage,
             obj.images()[i].Serialize());
  }

  std::string out;
  PutLengthPrefixed(&out, desc.Serialize());
  out += comp.Serialize();
  return out;
}

StatusOr<std::string> ArchiveMailer::MailInside(storage::ObjectId id) {
  MINOS_ASSIGN_OR_RETURN(storage::ObjectVersion v, versions_->Current(id));
  std::string bytes;
  MINOS_RETURN_IF_ERROR(archiver_->Read(v.address, &bytes));
  return bytes;
}

StatusOr<std::string> ArchiveMailer::MailOutside(storage::ObjectId id) {
  MINOS_ASSIGN_OR_RETURN(std::string bytes, MailInside(id));
  return ResolvePointers(std::move(bytes));
}

StatusOr<std::string> ArchiveMailer::ResolvePointers(std::string bytes) {
  Decoder dec(bytes);
  std::string_view desc_bytes;
  MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&desc_bytes));
  MINOS_ASSIGN_OR_RETURN(ObjectDescriptor desc,
                         ObjectDescriptor::Deserialize(desc_bytes));
  std::string_view comp_bytes;
  MINOS_RETURN_IF_ERROR(dec.GetRaw(dec.remaining(), &comp_bytes));
  if (std::none_of(desc.parts.begin(), desc.parts.end(),
                   [](const PartPointer& p) { return p.in_archiver; })) {
    MINOS_RETURN_IF_ERROR(CompositionFile::Parse(comp_bytes).status());
    return bytes;
  }
  MINOS_ASSIGN_OR_RETURN(CompositionFile comp,
                         CompositionFile::Deserialize(comp_bytes));
  for (PartPointer& p : desc.parts) {
    if (!p.in_archiver) continue;
    std::string payload;
    MINOS_RETURN_IF_ERROR(
        archiver_->ReadRange(p.offset, p.length, &payload));
    p.offset = comp.AppendPart(p.name, p.type, payload);
    p.in_archiver = false;
  }
  std::string out;
  PutLengthPrefixed(&out, desc.Serialize());
  out += comp.Serialize();
  return out;
}

StatusOr<MultimediaObject> ArchiveMailer::FetchObject(
    storage::ObjectId id) {
  MINOS_ASSIGN_OR_RETURN(std::string bytes, MailInside(id));
  MINOS_ASSIGN_OR_RETURN(std::string resolved,
                         ResolvePointers(std::move(bytes)));
  return MultimediaObject::DeserializeArchived(id, resolved);
}

}  // namespace minos::format
