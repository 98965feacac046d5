#ifndef MINOS_PERFBENCH_HARNESS_H_
#define MINOS_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every workload: host timing, the
// percentile rule, registry folding, host-clock span attribution and the
// result line the benchmark prints last.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "minos/obs/metrics.h"
#include "minos/obs/trace.h"

namespace perfbench {

/// Monotonic host time in seconds.
inline double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMiB();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The tail rule: the highest of p99, p95, p90 (then p75, p50 for short
/// runs) that leaves at least ten samples beyond it.
struct Tail {
  double value = 0;
  std::string label;   ///< "p99", "p95", ...
  size_t beyond = 0;   ///< Samples strictly above the percentile's rank.
};
Tail TailOf(std::vector<double> values);

/// Registry counters with per-instance scopes folded into families:
/// "link37.bytes_total" -> "link.bytes_total", "block_cache3.hits" ->
/// "block_cache.hits", "fault2.drops" -> "fault.drops",
/// "router.shard1.requests_total" -> "router.shard.requests_total".
/// Values of one family are summed, so names are stable across runs and
/// topologies.
std::map<std::string, int64_t> FoldedCounters(
    const minos::obs::MetricsSnapshot& snapshot);

/// Same folding for histogram sums.
std::map<std::string, double> FoldedHistogramSums(
    const minos::obs::MetricsSnapshot& snapshot);

/// Layer a program span belongs to, by name prefix ("" = the timed
/// unit's own layer).
std::string LayerOfSpan(const std::string& name);

/// Host self time per layer, accumulated over timed units. Each unit's
/// window is partitioned exactly: every instant goes to the deepest
/// span open at that instant (ties: earliest start), and instants no
/// program span covers go to the unit's own layer. Nested calls thus get
/// their self time; overlapping siblings (events of one epoch, shard
/// tasks on two workers) never double-count.
class LayerClock {
 public:
  /// Charges the window [start_us, end_us] of one timed unit whose
  /// uncovered time belongs to `unit_layer`.
  void AddUnit(const std::string& unit_layer, minos::Micros start_us,
               minos::Micros end_us,
               const std::vector<minos::obs::SpanRecord>& spans);

  const std::map<std::string, double>& self_us() const { return self_us_; }
  const std::map<std::string, int64_t>& spans() const { return spans_; }
  double SelfMs(const std::string& layer) const;

 private:
  std::map<std::string, double> self_us_;
  std::map<std::string, int64_t> spans_;
};

/// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Prints the final line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}. Values print with 17
/// significant digits.
void PrintResultLine(bool correct, int64_t attempted, int64_t failed,
                     const std::map<std::string, Metric>& metrics);

}  // namespace perfbench

#endif  // MINOS_PERFBENCH_HARNESS_H_
