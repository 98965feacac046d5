#include "minos/storage/archiver.h"

#include <algorithm>

namespace minos::storage {

Archiver::Archiver(BlockDevice* device, BlockCache* cache)
    : device_(device), cache_(cache) {}

StatusOr<ArchiveAddress> Archiver::Append(std::string_view bytes) {
  const uint32_t bs = device_->block_size();
  ArchiveAddress addr{size_, bytes.size()};
  tail_.append(bytes);
  size_ += bytes.size();
  // Write out every full block accumulated in the tail, then drop the
  // written prefix with one erase: erasing block by block would move the
  // rest of the tail each time, quadratic in the append's size. A failed
  // write leaves the unwritten rest in the tail.
  size_t written = 0;
  Status status;
  while (tail_.size() - written >= bs) {
    const std::string_view block =
        std::string_view(tail_).substr(written, bs);
    status = device_->Write(flushed_blocks_, block);
    if (!status.ok()) break;
    if (cache_ != nullptr) cache_->Insert(flushed_blocks_, block);
    written += bs;
    ++flushed_blocks_;
  }
  tail_.erase(0, written);
  MINOS_RETURN_IF_ERROR(status);
  return addr;
}

Status Archiver::Flush() {
  if (tail_.empty()) return Status::OK();
  const uint32_t bs = device_->block_size();
  std::string padded = tail_;
  padded.resize(bs, '\0');
  MINOS_RETURN_IF_ERROR(device_->Write(flushed_blocks_, padded));
  if (cache_ != nullptr) cache_->Insert(flushed_blocks_, padded);
  // On a WORM device the tail block can never be extended after this, so
  // subsequent appends start on the next block.
  size_ = (flushed_blocks_ + 1) * static_cast<uint64_t>(bs);
  ++flushed_blocks_;
  tail_.clear();
  return Status::OK();
}

Status Archiver::ReadBlockFromDevice(uint64_t block, std::string* out,
                                     bool use_cache) const {
  if (block >= flushed_blocks_) {
    // Block only exists in the volatile tail.
    const uint32_t bs = device_->block_size();
    const uint64_t tail_start = flushed_blocks_ * bs;
    const uint64_t rel = block * static_cast<uint64_t>(bs) - tail_start;
    out->assign(bs, '\0');
    if (rel < tail_.size()) {
      const size_t n = std::min<size_t>(bs, tail_.size() - rel);
      out->replace(0, n, tail_, rel, n);
    }
    return Status::OK();
  }
  MINOS_RETURN_IF_ERROR(device_->Read(block, 1, out));
  if (use_cache && cache_ != nullptr) cache_->Insert(block, *out);
  return Status::OK();
}

Status Archiver::Read(const ArchiveAddress& address, std::string* out) const {
  return ReadRange(address.offset, address.length, out);
}

Status Archiver::ReadUncached(const ArchiveAddress& address,
                              std::string* out) const {
  return ReadRangeImpl(address.offset, address.length, out,
                       /*use_cache=*/false);
}

Status Archiver::ReadRange(uint64_t offset, uint64_t length,
                           std::string* out) const {
  return ReadRangeImpl(offset, length, out, /*use_cache=*/true);
}

Status Archiver::ReadRangeImpl(uint64_t offset, uint64_t length,
                               std::string* out, bool use_cache) const {
  out->clear();
  if (length == 0) return Status::OK();
  if (offset > size_ || length > size_ - offset) {
    return Status::OutOfRange("archiver read past end");
  }
  out->reserve(length);
  const uint32_t bs = device_->block_size();
  const uint64_t first = offset / bs;
  const uint64_t last = (offset + length - 1) / bs;
  // A hit appends its slice straight from the cache frame; a miss reads
  // the block once into `block`, reused across misses.
  const bool cached = use_cache && cache_ != nullptr;
  std::string block;
  for (uint64_t b = first; b <= last; ++b) {
    const uint64_t lo = (b == first) ? offset - first * bs : 0;
    const uint64_t hi = (b == last) ? offset + length - last * bs : bs;
    if (cached && cache_->AppendSlice(b, lo, hi - lo, out)) continue;
    MINOS_RETURN_IF_ERROR(ReadBlockFromDevice(b, &block, use_cache));
    out->append(block, lo, hi - lo);
  }
  return Status::OK();
}

}  // namespace minos::storage
