#include "minos/storage/data_directory.h"

#include <algorithm>

#include "minos/util/coding.h"

namespace minos::storage {

void DataDirectory::AddLocal(std::string name, DataType type,
                             uint64_t length, DataStatus status) {
  Entry e;
  e.name = std::move(name);
  e.type = type;
  e.location = DataLocation::kLocalFile;
  e.status = status;
  e.length = length;
  entries_.push_back(std::move(e));
}

void DataDirectory::AddArchiverReference(std::string name, DataType type,
                                         ArchiveAddress address) {
  Entry e;
  e.name = std::move(name);
  e.type = type;
  e.location = DataLocation::kArchiver;
  e.status = DataStatus::kFinal;  // Archived data is final by definition.
  e.length = address.length;
  e.archive_address = address;
  entries_.push_back(std::move(e));
}

StatusOr<DataDirectory::Entry> DataDirectory::Find(
    std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e;
  }
  return Status::NotFound("data directory entry '" + std::string(name) +
                          "' not found");
}

Status DataDirectory::MarkFinal(std::string_view name) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.status = DataStatus::kFinal;
      return Status::OK();
    }
  }
  return Status::NotFound("data directory entry '" + std::string(name) +
                          "' not found");
}

bool DataDirectory::AllFinal() const {
  for (const Entry& e : entries_) {
    if (e.status != DataStatus::kFinal) return false;
  }
  return true;
}

std::string DataDirectory::Serialize() const {
  std::string out;
  PutVarint64(&out, entries_.size());
  for (const Entry& e : entries_) {
    PutLengthPrefixed(&out, e.name);
    out.push_back(static_cast<char>(e.type));
    out.push_back(static_cast<char>(e.location));
    out.push_back(static_cast<char>(e.status));
    PutVarint64(&out, e.length);
    PutVarint64(&out, e.archive_address.offset);
    PutVarint64(&out, e.archive_address.length);
  }
  return out;
}

StatusOr<DataDirectory> DataDirectory::Deserialize(std::string_view bytes) {
  Decoder dec(bytes);
  uint64_t n = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint64(&n));
  DataDirectory dir;
  // Every entry takes at least seven bytes, so a forged count cannot
  // reserve more than the input could hold.
  dir.entries_.reserve(std::min<uint64_t>(n, dec.remaining() / 7));
  for (uint64_t i = 0; i < n; ++i) {
    Entry e;
    MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&e.name));
    std::string b;
    MINOS_RETURN_IF_ERROR(dec.GetRaw(3, &b));
    e.type = static_cast<DataType>(static_cast<uint8_t>(b[0]));
    e.location = static_cast<DataLocation>(static_cast<uint8_t>(b[1]));
    e.status = static_cast<DataStatus>(static_cast<uint8_t>(b[2]));
    MINOS_RETURN_IF_ERROR(dec.GetVarint64(&e.length));
    MINOS_RETURN_IF_ERROR(dec.GetVarint64(&e.archive_address.offset));
    MINOS_RETURN_IF_ERROR(dec.GetVarint64(&e.archive_address.length));
    dir.entries_.push_back(std::move(e));
  }
  return dir;
}

}  // namespace minos::storage
