#ifndef MINOS_STORAGE_ARCHIVER_H_
#define MINOS_STORAGE_ARCHIVER_H_

#include <cstdint>
#include <string>

#include "minos/storage/block_cache.h"
#include "minos/storage/block_device.h"
#include "minos/util/status.h"
#include "minos/util/statusor.h"

namespace minos::storage {

/// A byte range inside the archiver's append-only address space.
/// Object descriptors hold ArchiveAddresses when they point at data that
/// lives in the archiver rather than in the object's own composition file
/// (paper §4: "the object descriptor points either to offsets within the
/// composition file or to offsets within the archiver").
struct ArchiveAddress {
  uint64_t offset = 0;
  uint64_t length = 0;

  friend bool operator==(const ArchiveAddress& a,
                         const ArchiveAddress& b) = default;
};

/// Append-only object archiver over a (typically WORM optical) block
/// device, with an LRU block cache in front. This is the archived-state
/// store of MINOS: archived objects are immutable, written once as
/// descriptor + composition file, and later read back wholly or in part
/// (partial reads are what make views over large images cheap).
class Archiver {
 public:
  /// `device` and `cache` must outlive the archiver. `cache` may be null
  /// to bypass caching.
  Archiver(BlockDevice* device, BlockCache* cache);

  Archiver(const Archiver&) = delete;
  Archiver& operator=(const Archiver&) = delete;

  /// Appends `bytes` to the archive and returns their address.
  /// Data becomes durable (device-resident) once the covering blocks
  /// fill or Flush() is called; reads see it immediately either way.
  StatusOr<ArchiveAddress> Append(std::string_view bytes);

  /// Pads and writes the partially filled tail block, if any.
  Status Flush();

  /// Reads `address.length` bytes at `address.offset`. Touches only the
  /// covering blocks; cached blocks cost no device time.
  Status Read(const ArchiveAddress& address, std::string* out) const;

  /// Reads an arbitrary sub-range [offset, offset+length).
  Status ReadRange(uint64_t offset, uint64_t length, std::string* out) const;

  /// Cache-bypassing read of `address`: every flushed covering block
  /// comes off the device itself (the volatile tail is served from
  /// memory as usual), and nothing is inserted into the cache.
  /// Integrity scrubs use this to audit the medium rather than the
  /// cache's memory of it — a cached read cannot see media rot.
  Status ReadUncached(const ArchiveAddress& address, std::string* out) const;

  /// Total bytes appended so far (the archiver write head).
  uint64_t size() const { return size_; }

  /// The underlying device (for statistics inspection).
  const BlockDevice& device() const { return *device_; }

 private:
  /// Reads one block that missed the cache: from the volatile tail, or
  /// from the device, inserting it into the cache when `use_cache`.
  Status ReadBlockFromDevice(uint64_t block, std::string* out,
                             bool use_cache) const;
  Status ReadRangeImpl(uint64_t offset, uint64_t length, std::string* out,
                       bool use_cache) const;

  BlockDevice* device_;
  BlockCache* cache_;
  uint64_t size_ = 0;           // Logical bytes appended.
  uint64_t flushed_blocks_ = 0; // Blocks durably written.
  std::string tail_;            // Partial last block not yet on device.
};

}  // namespace minos::storage

#endif  // MINOS_STORAGE_ARCHIVER_H_
