#ifndef MINOS_STORAGE_BLOCK_DEVICE_H_
#define MINOS_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "minos/util/clock.h"
#include "minos/util/status.h"

namespace minos::storage {

/// Timing model for a rotating storage device. The MINOS server subsystem
/// (paper §5) is optical-disk based with optional high-performance magnetic
/// disks; we reproduce both as parameterized cost models so that the
/// queueing/caching experiments are measurable in simulated time.
struct DeviceCostModel {
  /// Fixed cost to start any seek (actuator settle).
  Micros seek_base = 0;
  /// Additional cost per block of seek distance.
  double seek_per_block = 0.0;
  /// Maximum total seek cost (full-stroke bound).
  Micros seek_max = 0;
  /// Average rotational latency charged on every access.
  Micros rotational_latency = 0;
  /// Cost to transfer one block once positioned.
  Micros transfer_per_block = 0;
  /// Seeks of at most this many blocks are "track-to-track" and cost
  /// `near_seek_cost` instead of the base model (0 disables the tier).
  uint64_t near_seek_threshold = 0;
  Micros near_seek_cost = 0;

  /// Mid-1980s write-once optical disk: slow heavy head, modest transfer.
  /// (~ 200 ms average seek, 8 ms rotation, ~ 1 MB/s at 1 KB blocks.)
  static DeviceCostModel OpticalDisk();

  /// Contemporary high-performance magnetic disk (~ 28 ms average seek,
  /// ~ 8 ms rotation, ~ 2 MB/s).
  static DeviceCostModel MagneticDisk();

  /// Zero-cost model for tests that do not care about timing.
  static DeviceCostModel Instant();

  /// Cost of moving the head from `from_block` to `to_block`.
  Micros SeekCost(uint64_t from_block, uint64_t to_block) const;

  /// Cost of transferring `n` consecutive blocks.
  Micros TransferCost(uint64_t n) const;
};

/// Cumulative device statistics, readable by benchmarks.
struct DeviceStats {
  uint64_t reads = 0;           ///< Read requests served.
  uint64_t writes = 0;          ///< Write requests served.
  uint64_t blocks_read = 0;     ///< Blocks transferred in.
  uint64_t blocks_written = 0;  ///< Blocks transferred out.
  Micros busy_time = 0;         ///< Total simulated service time.
  uint64_t seeks = 0;           ///< Head movements (non-sequential access).
};

/// An in-memory simulated block device with a cost model and optional
/// write-once (WORM) semantics, standing in for the optical and magnetic
/// disks of the MINOS server subsystem. All accesses advance the injected
/// SimClock by the modeled service time.
class BlockDevice {
 public:
  /// Creates a device of `num_blocks` blocks of `block_size` bytes.
  /// If `write_once` is true, a block can be written at most once
  /// (optical WORM media).
  BlockDevice(std::string name, uint64_t num_blocks, uint32_t block_size,
              DeviceCostModel cost, bool write_once, SimClock* clock);

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  /// Device identification.
  const std::string& name() const { return name_; }
  uint64_t num_blocks() const { return num_blocks_; }
  uint32_t block_size() const { return block_size_; }
  bool write_once() const { return write_once_; }

  /// Reads `count` consecutive blocks starting at `block` into `out`
  /// (resized to count*block_size). Charges seek + rotation + transfer.
  Status Read(uint64_t block, uint64_t count, std::string* out);

  /// Fault hook consulted after every successful Read fills `out`: it may
  /// corrupt the payload in place or return a non-OK status (a media
  /// error). Layering keeps the injector type out of storage; a
  /// server::FaultInjector is the usual implementation:
  ///   device.SetReadFaultHook([&](uint64_t, uint64_t, std::string* d) {
  ///     injector.MaybeCorrupt(d);
  ///     return injector.OnOperation("device read");
  ///   });
  using ReadFaultHook =
      std::function<Status(uint64_t block, uint64_t count, std::string* out)>;

  /// Installs (or clears, with nullptr) the read fault hook.
  void SetReadFaultHook(ReadFaultHook hook) { read_fault_ = std::move(hook); }

  /// Fault hook consulted before every Write lands: it may tear the
  /// payload in place (a partial/garbled write that still commits — the
  /// checksums must catch it at read time) or return a non-OK status (a
  /// media error; nothing is written). `block` is the first block of the
  /// write.
  using WriteFaultHook =
      std::function<Status(uint64_t block, std::string* data)>;

  /// Installs (or clears, with nullptr) the write fault hook.
  void SetWriteFaultHook(WriteFaultHook hook) {
    write_fault_ = std::move(hook);
  }

  /// Writes `data` (must be a whole number of blocks) starting at `block`.
  /// On a WORM device rewriting a written block fails with
  /// FailedPrecondition.
  Status Write(uint64_t block, std::string_view data);

  /// Number of blocks ever written (high-water mark for append-only use).
  uint64_t blocks_used() const { return blocks_used_; }

  /// Pure timing query: service time of a hypothetical access at the
  /// current head position, without performing it. Used by the scheduler.
  Micros EstimateServiceTime(uint64_t block, uint64_t count) const;

  /// Current head position (block index after the last access).
  uint64_t head_position() const { return head_; }

  /// The shared simulated clock every access advances.
  SimClock* clock() const { return clock_; }

  /// Cumulative statistics.
  const DeviceStats& stats() const { return stats_; }

  /// Zeroes the statistics (not the data).
  void ResetStats() { stats_ = DeviceStats(); }

 private:
  Micros ChargeAccess(uint64_t block, uint64_t count);

  std::string name_;
  uint64_t num_blocks_;
  uint32_t block_size_;
  DeviceCostModel cost_;
  bool write_once_;
  SimClock* clock_;

  /// Blocks per storage chunk. A chunk is allocated, zero-filled, the
  /// first time a block in it is written; blocks of a missing chunk read
  /// as zeros.
  static constexpr uint64_t kChunkBlocks = 64;

  /// Flat storage for the blocks [c * kChunkBlocks, (c+1) * kChunkBlocks)
  /// at index c; null until written.
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<bool> written_;
  ReadFaultHook read_fault_;    // Null when fault-free.
  WriteFaultHook write_fault_;  // Null when fault-free.
  uint64_t blocks_used_ = 0;
  uint64_t head_ = 0;
  DeviceStats stats_;
};

}  // namespace minos::storage

#endif  // MINOS_STORAGE_BLOCK_DEVICE_H_
