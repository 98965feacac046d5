#ifndef MINOS_PERFBENCH_WORKLOAD_H_
#define MINOS_PERFBENCH_WORKLOAD_H_

// The contract every workload implements. A workload owns its topology
// and a deterministic script of timed operations generated from the
// seed; main.cc decides how long to run it, with or without
// the host-clock tracer, and turns the step results into metrics.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus.h"
#include "harness.h"
#include "minos/obs/trace.h"
#include "minos/util/clock.h"

namespace perfbench {

/// One timed operation, as the workload measured it.
struct StepResult {
  double host_us = 0;  ///< Host wall time of the timed call alone.
  /// The timed call's window on the host clock (WallClock, us), for
  /// attributing the spans it recorded.
  minos::Micros window_start_us = 0;
  minos::Micros window_end_us = 0;
  /// Simulated waits this operation contributes (one per operation; one
  /// per session event for a storm epoch).
  std::vector<double> sim_us;
  bool failed = false;
  std::string error;  ///< First failure, when failed.
  /// Layer charged with host time no program span covers.
  std::string layer;
};

/// Per-run extras the registry does not hold.
struct WorkloadTotals {
  DeviceTotals devices;
  double user_bytes = 0;          ///< Bytes the script asked to write.
  double peak_prefetch_depth = 0; ///< Queued + ready entries, max.
  /// Folded registry deltas of untimed work inside Step (oracle probes,
  /// rebuilds between rounds), which main.cc subtracts from the phase.
  std::map<std::string, int64_t> untimed_counters;
  std::map<std::string, double> untimed_hist_sums;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the seeded inputs (corpus objects, oracle structures)
  /// once, before any set-up is timed.
  virtual void Prepare() = 0;

  /// Builds a fresh topology and loads the corpus (the set-up main.cc
  /// times). Attaches the tracer set with SetTracer, if any.
  virtual void Build() = 0;

  /// Runs the next timed operation of the script. Untimed bookkeeping
  /// (event generation, oracle checks, rebuilding between rounds) happens
  /// inside, outside the timed window.
  virtual StepResult Step() = 0;

  /// Operations the script runs per second of --seconds: a fixed amount
  /// of work that takes about that long on the reference host (4 cores
  /// at 2 GHz). Every run of one seed and duration therefore does the
  /// same operations, so the simulated metrics are a function of the
  /// seed alone and host medians compare like with like.
  virtual double ops_per_second() const = 0;

  /// One line describing the input size and operation mix.
  virtual std::string Describe() const = 0;

  /// Self-validation over the measured phase's folded counter deltas:
  /// the problems found (empty = the workload exercised its layers).
  virtual std::vector<std::string> Validate(
      const std::map<std::string, int64_t>& counters) const = 0;

  /// End-of-run oracle beyond the per-step checks (empty = passed).
  virtual std::vector<std::string> Oracle() { return {}; }

  /// Takes effect at the next Build.
  void SetTracer(minos::obs::Tracer* tracer) { tracer_ = tracer; }

  /// Zeroes the extras (start of a measured phase).
  virtual void ResetTotals() = 0;
  virtual WorkloadTotals Totals() const = 0;

 protected:
  minos::obs::Tracer* tracer_ = nullptr;
};

/// Workload factories. `workers` sizes every task pool the workload
/// builds.
std::unique_ptr<Workload> MakeStorm(uint64_t seed, int workers);
std::unique_ptr<Workload> MakeIngest(uint64_t seed, int workers);
std::unique_ptr<Workload> MakeBrowse(uint64_t seed, int workers);

/// Times `fn` on both clocks into `result`.
template <typename Fn>
void TimeCall(StepResult* result, Fn&& fn) {
  static const minos::WallClock wall;
  result->window_start_us = wall.Now();
  const double t0 = HostSeconds();
  fn();
  result->host_us = (HostSeconds() - t0) * 1e6;
  result->window_end_us = wall.Now();
}

}  // namespace perfbench

#endif  // MINOS_PERFBENCH_WORKLOAD_H_
