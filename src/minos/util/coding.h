#ifndef MINOS_UTIL_CODING_H_
#define MINOS_UTIL_CODING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "minos/util/status.h"

namespace minos {

/// Byte-level codec used by the object descriptor, composition file and
/// archiver formats. Little-endian fixed-width integers plus LEB128-style
/// varints and length-prefixed strings — the same vocabulary RocksDB uses
/// for its file formats.

/// Appends a little-endian 32-bit value.
void PutFixed32(std::string* dst, uint32_t value);

/// Appends a little-endian 64-bit value.
void PutFixed64(std::string* dst, uint64_t value);

/// Appends a varint-encoded 32-bit value (1-5 bytes).
void PutVarint32(std::string* dst, uint32_t value);

/// Appends a varint-encoded 64-bit value (1-10 bytes).
void PutVarint64(std::string* dst, uint64_t value);

/// Appends a varint length prefix followed by the bytes of `value`.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`. Used as the part
/// checksum in the archival format so that corrupted media parts are
/// detected at decode time instead of being rendered. On x86-64 CPUs with
/// PCLMULQDQ (checked once at run time) buffers of 64 bytes and more are
/// folded by carry-less multiplication; other CPUs, shorter buffers and
/// the last few bytes take slicing-by-8. Both give the same value.
uint32_t Crc32(std::string_view bytes);

/// Cursor over encoded bytes. Each Get* consumes from the front and returns
/// Corruption if the input is truncated or malformed.
class Decoder {
 public:
  /// Decodes from `data`, which must outlive the Decoder.
  explicit Decoder(std::string_view data) : data_(data) {}

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size(); }

  /// True when all input has been consumed.
  bool empty() const { return data_.empty(); }

  Status GetFixed32(uint32_t* value);
  Status GetFixed64(uint64_t* value);
  Status GetVarint32(uint32_t* value);
  Status GetVarint64(uint64_t* value);

  /// Reads a length-prefixed string as a view into the input (no copy;
  /// valid only as long as the decoded bytes are).
  Status GetLengthPrefixed(std::string_view* value);

  /// Reads a length-prefixed string into `value` (copies the bytes).
  Status GetLengthPrefixed(std::string* value);

  /// Reads exactly `n` raw bytes as a view into the input (no copy).
  Status GetRaw(size_t n, std::string_view* value);

  /// Reads exactly `n` raw bytes into `value` (copies them).
  Status GetRaw(size_t n, std::string* value);

 private:
  std::string_view data_;
};

}  // namespace minos

#endif  // MINOS_UTIL_CODING_H_
