#ifndef MINOS_UTIL_CRC32_INTERNAL_H_
#define MINOS_UTIL_CRC32_INTERNAL_H_

#include <cstdint>
#include <string_view>

/// The two CRC-32 paths behind `minos::Crc32`, exposed so tests can check
/// each one against a reference. Library code calls `Crc32` only.
namespace minos::crc32_internal {

/// Slicing-by-8 over all of `bytes`: the path for CPUs without
/// carry-less multiply.
uint32_t Portable(std::string_view bytes);

/// True when this CPU can run `Folded` (x86-64 with PCLMULQDQ).
bool CanFold();

/// Carry-less-multiply folding over the 16-byte-aligned prefix of a
/// buffer of at least 64 bytes, slicing-by-8 over the rest. Requires
/// `CanFold()`. Off x86-64 this is `Portable`.
uint32_t Folded(std::string_view bytes);

}  // namespace minos::crc32_internal

#endif  // MINOS_UTIL_CRC32_INTERNAL_H_
