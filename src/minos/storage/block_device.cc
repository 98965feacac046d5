#include "minos/storage/block_device.h"

#include <algorithm>
#include <cstring>

namespace minos::storage {

DeviceCostModel DeviceCostModel::OpticalDisk() {
  DeviceCostModel m;
  m.seek_base = 50000;        // 50 ms settle for the heavy optical head.
  m.seek_per_block = 1.0;     // + 1 us per block of travel distance.
  m.seek_max = 400000;        // 400 ms full stroke.
  m.rotational_latency = 8300;
  m.transfer_per_block = 1000;  // 1 ms per 1 KB block ~ 1 MB/s.
  m.near_seek_threshold = 64;   // Same-track repositioning.
  m.near_seek_cost = 4000;
  return m;
}

DeviceCostModel DeviceCostModel::MagneticDisk() {
  DeviceCostModel m;
  m.seek_base = 8000;         // 8 ms settle.
  m.seek_per_block = 0.2;
  m.seek_max = 55000;         // 55 ms full stroke.
  m.rotational_latency = 8300;
  m.transfer_per_block = 500;   // ~ 2 MB/s at 1 KB blocks.
  m.near_seek_threshold = 64;
  m.near_seek_cost = 2000;
  return m;
}

DeviceCostModel DeviceCostModel::Instant() { return DeviceCostModel(); }

Micros DeviceCostModel::SeekCost(uint64_t from_block,
                                 uint64_t to_block) const {
  if (from_block == to_block) return 0;
  const uint64_t dist =
      from_block > to_block ? from_block - to_block : to_block - from_block;
  if (near_seek_threshold > 0 && dist <= near_seek_threshold) {
    return near_seek_cost;
  }
  Micros cost = seek_base + static_cast<Micros>(seek_per_block *
                                                static_cast<double>(dist));
  if (seek_max > 0) cost = std::min(cost, seek_max);
  return cost;
}

Micros DeviceCostModel::TransferCost(uint64_t n) const {
  return transfer_per_block * static_cast<Micros>(n);
}

BlockDevice::BlockDevice(std::string name, uint64_t num_blocks,
                         uint32_t block_size, DeviceCostModel cost,
                         bool write_once, SimClock* clock)
    : name_(std::move(name)),
      num_blocks_(num_blocks),
      block_size_(block_size),
      cost_(cost),
      write_once_(write_once),
      clock_(clock),
      chunks_((num_blocks + kChunkBlocks - 1) / kChunkBlocks),
      written_(num_blocks, false) {}

Micros BlockDevice::ChargeAccess(uint64_t block, uint64_t count) {
  const Micros seek = cost_.SeekCost(head_, block);
  if (seek > 0) ++stats_.seeks;
  const Micros total =
      seek + cost_.rotational_latency + cost_.TransferCost(count);
  if (clock_ != nullptr) clock_->Advance(total);
  stats_.busy_time += total;
  head_ = block + count;
  return total;
}

Status BlockDevice::Read(uint64_t block, uint64_t count, std::string* out) {
  if (count > num_blocks_ || block > num_blocks_ - count) {
    return Status::OutOfRange("read past end of device " + name_);
  }
  ChargeAccess(block, count);
  ++stats_.reads;
  stats_.blocks_read += count;
  out->clear();
  out->reserve(count * block_size_);
  // One append per chunk the range crosses.
  for (uint64_t b = block, end = block + count; b < end;) {
    const uint64_t chunk = b / kChunkBlocks;
    const uint64_t n = std::min(end, (chunk + 1) * kChunkBlocks) - b;
    const size_t bytes = n * block_size_;
    if (chunks_[chunk] != nullptr) {
      out->append(chunks_[chunk].get() + (b % kChunkBlocks) * block_size_,
                  bytes);
    } else {
      out->append(bytes, '\0');  // Never written: reads as zeros.
    }
    b += n;
  }
  if (read_fault_) return read_fault_(block, count, out);
  return Status::OK();
}

Status BlockDevice::Write(uint64_t block, std::string_view data) {
  if (data.size() % block_size_ != 0) {
    return Status::InvalidArgument("write is not a whole number of blocks");
  }
  const uint64_t count = data.size() / block_size_;
  if (count > num_blocks_ || block > num_blocks_ - count) {
    return Status::OutOfRange("write past end of device " + name_);
  }
  if (write_once_) {
    for (uint64_t i = 0; i < count; ++i) {
      if (written_[block + i]) {
        return Status::FailedPrecondition(
            "WORM device " + name_ + " block already written");
      }
    }
  }
  std::string faulted;
  if (write_fault_) {
    faulted.assign(data);
    MINOS_RETURN_IF_ERROR(write_fault_(block, &faulted));
    if (faulted.size() != data.size()) {
      return Status::InvalidArgument(
          "write fault hook changed the payload size");
    }
    data = faulted;
  }
  ChargeAccess(block, count);
  ++stats_.writes;
  stats_.blocks_written += count;
  const size_t chunk_bytes = kChunkBlocks * block_size_;
  for (uint64_t i = 0; i < count; ++i) {
    std::unique_ptr<char[]>& chunk = chunks_[(block + i) / kChunkBlocks];
    if (chunk == nullptr) chunk = std::make_unique<char[]>(chunk_bytes);
    std::memcpy(chunk.get() + ((block + i) % kChunkBlocks) * block_size_,
                data.data() + i * block_size_, block_size_);
    if (!written_[block + i]) {
      written_[block + i] = true;
      ++blocks_used_;
    }
  }
  return Status::OK();
}

Micros BlockDevice::EstimateServiceTime(uint64_t block,
                                        uint64_t count) const {
  return cost_.SeekCost(head_, block) + cost_.rotational_latency +
         cost_.TransferCost(count);
}

}  // namespace minos::storage
