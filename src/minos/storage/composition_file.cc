#include "minos/storage/composition_file.h"

#include <algorithm>

#include "minos/util/coding.h"

namespace minos::storage {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kAttributes:
      return "attributes";
    case DataType::kText:
      return "text";
    case DataType::kVoice:
      return "voice";
    case DataType::kImage:
      return "image";
    case DataType::kDescriptor:
      return "descriptor";
    case DataType::kOther:
      return "other";
  }
  return "?";
}

uint64_t CompositionFile::AppendPart(std::string name, DataType type,
                                     std::string_view payload) {
  Part p;
  p.name = std::move(name);
  p.type = type;
  p.offset = data_.size();
  p.length = payload.size();
  data_.append(payload);
  parts_.push_back(std::move(p));
  return parts_.back().offset;
}

StatusOr<CompositionFile::Part> CompositionFile::FindPart(
    std::string_view name) const {
  for (const Part& p : parts_) {
    if (p.name == name) return p;
  }
  return Status::NotFound("composition part '" + std::string(name) +
                          "' not found");
}

Status CompositionFile::ReadPart(const Part& part, std::string* out) const {
  return ReadRange(part.offset, part.length, out);
}

Status CompositionFile::ReadRange(uint64_t offset, uint64_t length,
                                  std::string* out) const {
  MINOS_ASSIGN_OR_RETURN(std::string_view range,
                         Slice(data_, offset, length));
  out->assign(range);
  return Status::OK();
}

StatusOr<std::string_view> CompositionFile::Slice(std::string_view payload,
                                                  uint64_t offset,
                                                  uint64_t length) {
  if (offset > payload.size() || length > payload.size() - offset) {
    return Status::OutOfRange("composition file range past end");
  }
  return payload.substr(offset, length);
}

std::string CompositionFile::Serialize() const {
  std::string out;
  PutVarint64(&out, parts_.size());
  for (const Part& p : parts_) {
    PutLengthPrefixed(&out, p.name);
    out.push_back(static_cast<char>(p.type));
    PutVarint64(&out, p.offset);
    PutVarint64(&out, p.length);
  }
  PutLengthPrefixed(&out, data_);
  return out;
}

StatusOr<CompositionFile> CompositionFile::Deserialize(
    std::string_view bytes) {
  MINOS_ASSIGN_OR_RETURN(View view, Parse(bytes));
  CompositionFile cf;
  cf.parts_ = std::move(view.parts);
  cf.data_.assign(view.payload);
  return cf;
}

StatusOr<CompositionFile::View> CompositionFile::Parse(
    std::string_view bytes) {
  Decoder dec(bytes);
  uint64_t n = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint64(&n));
  View view;
  // Every catalog entry takes at least four bytes, so a forged count
  // cannot reserve more than the input could hold.
  view.parts.reserve(std::min<uint64_t>(n, dec.remaining() / 4));
  for (uint64_t i = 0; i < n; ++i) {
    Part p;
    MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&p.name));
    std::string_view type_byte;
    MINOS_RETURN_IF_ERROR(dec.GetRaw(1, &type_byte));
    const auto raw = static_cast<uint8_t>(type_byte[0]);
    if (raw > static_cast<uint8_t>(DataType::kOther)) {
      return Status::Corruption("bad composition part type");
    }
    p.type = static_cast<DataType>(raw);
    MINOS_RETURN_IF_ERROR(dec.GetVarint64(&p.offset));
    MINOS_RETURN_IF_ERROR(dec.GetVarint64(&p.length));
    view.parts.push_back(std::move(p));
  }
  MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&view.payload));
  for (const Part& p : view.parts) {
    if (!Slice(view.payload, p.offset, p.length).ok()) {
      return Status::Corruption("composition part out of bounds");
    }
  }
  return view;
}

}  // namespace minos::storage
