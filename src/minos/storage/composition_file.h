#ifndef MINOS_STORAGE_COMPOSITION_FILE_H_
#define MINOS_STORAGE_COMPOSITION_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "minos/util/status.h"
#include "minos/util/statusor.h"

namespace minos::storage {

/// Kind of data stored in one part of a multimedia object (paper §2: a
/// multimedia object is composed of attributes, text segments, voice
/// segments, and images).
enum class DataType : uint8_t {
  kAttributes = 0,
  kText = 1,
  kVoice = 2,
  kImage = 3,
  kDescriptor = 4,
  kOther = 5,
};

/// Returns "text", "voice", ... for diagnostics.
const char* DataTypeName(DataType type);

/// The composition file of a multimedia object: "the concatenation of
/// several data files each one of which contains a certain part of the
/// multimedia object (text parts, images, etc.)" (§4). Parts are named,
/// typed, and addressed by byte offset within the file; the object
/// descriptor stores those offsets.
class CompositionFile {
 public:
  /// One part's catalog entry.
  struct Part {
    std::string name;
    DataType type = DataType::kOther;
    uint64_t offset = 0;  ///< Byte offset of the payload within the file.
    uint64_t length = 0;
  };

  CompositionFile() = default;

  /// Appends a part; returns its byte offset within the composition file.
  uint64_t AppendPart(std::string name, DataType type,
                      std::string_view payload);

  /// Number of parts.
  size_t part_count() const { return parts_.size(); }

  /// Catalog access.
  const std::vector<Part>& parts() const { return parts_; }

  /// Finds a part by name.
  StatusOr<Part> FindPart(std::string_view name) const;

  /// Reads the payload of a catalogued part.
  Status ReadPart(const Part& part, std::string* out) const;

  /// Reads an arbitrary byte range of the concatenated payload.
  Status ReadRange(uint64_t offset, uint64_t length, std::string* out) const;

  /// Total payload size in bytes.
  uint64_t size() const { return data_.size(); }

  /// Serializes catalog + payload into a single byte string (the form in
  /// which the composition file is concatenated with the descriptor for
  /// archiving or mailing).
  std::string Serialize() const;

  /// Parses a byte string produced by Serialize().
  static StatusOr<CompositionFile> Deserialize(std::string_view bytes);

  /// A composition file parsed in place: its catalog plus a view of the
  /// payload inside the parsed bytes, valid only as long as they are.
  struct View {
    std::vector<Part> parts;
    std::string_view payload;
  };

  /// Parses Serialize() bytes without copying the payload. Corruption on
  /// a truncated or malformed catalog or a part outside the payload.
  static StatusOr<View> Parse(std::string_view bytes);

  /// The `length` bytes at `offset` of `payload`; OutOfRange when they
  /// run past its end (checked without wrapping near 2^64).
  static StatusOr<std::string_view> Slice(std::string_view payload,
                                          uint64_t offset, uint64_t length);

  /// The raw concatenated payload (used when rebasing into the archiver).
  const std::string& raw_data() const { return data_; }

 private:
  std::vector<Part> parts_;
  std::string data_;
};

}  // namespace minos::storage

#endif  // MINOS_STORAGE_COMPOSITION_FILE_H_
