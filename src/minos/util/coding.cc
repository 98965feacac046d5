#include "minos/util/coding.h"

namespace minos {

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  dst->append(buf, 8);
}

void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Status Decoder::GetFixed32(uint32_t* value) {
  if (data_.size() < 4) return Status::Corruption("truncated fixed32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[i]))
         << (8 * i);
  }
  data_.remove_prefix(4);
  *value = v;
  return Status::OK();
}

Status Decoder::GetFixed64(uint64_t* value) {
  if (data_.size() < 8) return Status::Corruption("truncated fixed64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[i]))
         << (8 * i);
  }
  data_.remove_prefix(8);
  *value = v;
  return Status::OK();
}

Status Decoder::GetVarint32(uint32_t* value) {
  uint64_t v = 0;
  MINOS_RETURN_IF_ERROR(GetVarint64(&v));
  if (v > 0xFFFFFFFFULL) return Status::Corruption("varint32 overflow");
  *value = static_cast<uint32_t>(v);
  return Status::OK();
}

Status Decoder::GetVarint64(uint64_t* value) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (data_.empty()) return Status::Corruption("truncated varint");
    const unsigned char byte = static_cast<unsigned char>(data_[0]);
    data_.remove_prefix(1);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = v;
      return Status::OK();
    }
  }
  return Status::Corruption("varint too long");
}

Status Decoder::GetLengthPrefixed(std::string_view* value) {
  uint64_t len = 0;
  MINOS_RETURN_IF_ERROR(GetVarint64(&len));
  return GetRaw(static_cast<size_t>(len), value);
}

Status Decoder::GetLengthPrefixed(std::string* value) {
  std::string_view view;
  MINOS_RETURN_IF_ERROR(GetLengthPrefixed(&view));
  value->assign(view);
  return Status::OK();
}

Status Decoder::GetRaw(size_t n, std::string_view* value) {
  if (data_.size() < n) return Status::Corruption("truncated raw bytes");
  *value = data_.substr(0, n);
  data_.remove_prefix(n);
  return Status::OK();
}

Status Decoder::GetRaw(size_t n, std::string* value) {
  std::string_view view;
  MINOS_RETURN_IF_ERROR(GetRaw(n, &view));
  value->assign(view);
  return Status::OK();
}

namespace {

/// Slicing-by-8 tables: t[0] is the classic bytewise table; t[k][b] is
/// the CRC contribution of byte b followed by k zero bytes, so eight
/// input bytes fold into the CRC with eight independent lookups.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

/// Little-endian 32-bit load, independent of host byte order.
uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static const Crc32Tables tables;
  const auto& t = tables.t;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ Load32(p);
    const uint32_t hi = Load32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace minos
