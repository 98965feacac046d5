#include "minos/util/coding.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "minos/util/crc32_internal.h"

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

/// Advances the inverted CRC state `crc` over `n` bytes at `p`.
uint32_t SliceBy8(uint32_t crc, const unsigned char* p, size_t n) {
  static const Crc32Tables tables;
  const auto& t = tables.t;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ Load32(p);
    const uint32_t hi = Load32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__)

// Compiles the fold for carry-less multiply whatever the build flags;
// Crc32 runs it only on CPUs that have the instruction.
#define MINOS_CLMUL __attribute__((target("pclmul")))

/// Folds the 128-bit remainder `x` across 128 (k3/k4) or 512 (k1/k2)
/// bits of input and adds the next 16 input bytes.
MINOS_CLMUL inline __m128i Fold16(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances the inverted CRC state `crc` over `n` bytes at `p` (n >= 64,
/// a multiple of 16) by carry-less-multiply folding: four 128-bit lanes
/// per 64 bytes, folded to one lane, to 64 and to 32 bits, then a
/// Barrett reduction. Constants are those of the reflected IEEE
/// polynomial in Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel 2009.
MINOS_CLMUL uint32_t FoldBy4(uint32_t crc, const unsigned char* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = Load128(p);
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = Fold16(x1, k1k2, Load128(p));
    x2 = Fold16(x2, k1k2, Load128(p + 16));
    x3 = Fold16(x3, k1k2, Load128(p + 32));
    x4 = Fold16(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold16(x1, k3k4, x2);
  x1 = Fold16(x1, k3k4, x3);
  x1 = Fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold16(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  // 64 -> 32 bits.
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction to the 32-bit remainder.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly_mu, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, mask32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#undef MINOS_CLMUL

bool DetectFold() {
  __builtin_cpu_init();  // Safe even before static constructors run.
  return __builtin_cpu_supports("pclmul");
}

#endif  // defined(__x86_64__)

}  // namespace

namespace crc32_internal {

uint32_t Portable(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  return SliceBy8(0xFFFFFFFFu, p, bytes.size()) ^ 0xFFFFFFFFu;
}

bool CanFold() {
#if defined(__x86_64__)
  static const bool can_fold = DetectFold();
  return can_fold;
#else
  return false;
#endif
}

uint32_t Folded(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    crc = FoldBy4(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return SliceBy8(crc, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace crc32_internal

uint32_t Crc32(std::string_view bytes) {
  if (crc32_internal::CanFold()) return crc32_internal::Folded(bytes);
  return crc32_internal::Portable(bytes);
}

}  // namespace minos
