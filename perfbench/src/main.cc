// The MINOS benchmark program.
//
//   minos_perfbench --workload storm|ingest|browse --seed N
//                   --seconds S --trace 0|1 [--workers W]
//
// --workers sizes every task pool (default 1; 0 runs without pools).
// --trace 0 measures the end-to-end metrics with tracing off: set-up is
// repeated three times (median reported), then S x ops_per_second()
// timed operations run in a closed loop. --trace 1 measures the
// per-layer metrics: S/2 seconds' worth untraced, S/2 seconds' worth
// with a host-clock tracer attached (their ratio is the tracing
// overhead), then the layer probes. Either
// way the last line of stdout is one JSON object with the result, and
// the exit status is non-zero when any operation, oracle or
// self-validation check failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "minos/obs/metrics.h"
#include "minos/obs/trace.h"
#include "probes.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Task-pool threads. One by default: a pool of two or more threads
  /// can deadlock in TaskPool::RunEpoch (a worker may claim a task index
  /// of the next epoch while still bound to the finished one), so the
  /// timed runs stay on one worker.
  int workers = 1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--workers") {
      args->workers = std::max(0, std::atoi(value));
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "storm") return MakeStorm(args.seed, args.workers);
  if (args.workload == "ingest") return MakeIngest(args.seed, args.workers);
  if (args.workload == "browse") return MakeBrowse(args.seed, args.workers);
  return nullptr;
}

/// A phase never measures longer than this, however slow the host, so
/// the process ends well inside its three-minute allowance.
constexpr double kMaxPhaseSeconds = 120;

/// What one measured phase produced.
struct Phase {
  std::vector<double> host_us;
  std::vector<double> sim_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;
  uint64_t dropped_spans = 0;
  bool truncated = false;  ///< Stopped at kMaxPhaseSeconds.
  std::map<std::string, int64_t> counters;  ///< Folded deltas.
  std::map<std::string, double> hist_sums;  ///< Folded deltas.
  WorkloadTotals totals;

  double HostTotalSeconds() const {
    return std::accumulate(host_us.begin(), host_us.end(), 0.0) / 1e6;
  }
  double OpsPerSecond() const {
    const double total = HostTotalSeconds();
    return total > 0 ? static_cast<double>(host_us.size()) / total : 0.0;
  }
};

template <typename K, typename V>
std::map<K, V> Delta(const std::map<K, V>& after,
                     const std::map<K, V>& before) {
  std::map<K, V> out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? V{} : it->second);
  }
  return out;
}

/// Runs seconds x ops_per_second() operations of the workload's script in
/// a closed loop. With a tracer, each operation's spans are attributed
/// into `layers`.
Phase Measure(Workload& workload, double seconds, minos::obs::Tracer* tracer,
              LayerClock* layers) {
  minos::obs::MetricsRegistry& reg = minos::obs::MetricsRegistry::Default();
  const minos::obs::MetricsSnapshot before = reg.Snapshot();
  workload.ResetTotals();
  Phase phase;
  const int64_t target = std::max<int64_t>(
      1, std::llround(seconds * workload.ops_per_second()));
  const double start = HostSeconds();
  while (phase.attempted < target) {
    if (tracer != nullptr) tracer->Clear();
    const StepResult r = workload.Step();
    if (tracer != nullptr) {
      phase.dropped_spans += tracer->dropped_spans();
      layers->AddUnit(r.layer, r.window_start_us, r.window_end_us,
                      tracer->OrderedSpans());
    }
    phase.host_us.push_back(r.host_us);
    phase.sim_us.insert(phase.sim_us.end(), r.sim_us.begin(),
                        r.sim_us.end());
    ++phase.attempted;
    if (r.failed) {
      ++phase.failed;
      if (phase.first_error.empty()) phase.first_error = r.error;
    }
    if (HostSeconds() - start >= kMaxPhaseSeconds) {
      phase.truncated = true;
      break;
    }
  }
  if (tracer != nullptr) tracer->Clear();
  const minos::obs::MetricsSnapshot after = reg.Snapshot();
  phase.totals = workload.Totals();
  phase.counters =
      Delta(Delta(FoldedCounters(after), FoldedCounters(before)),
            phase.totals.untimed_counters);
  phase.hist_sums =
      Delta(Delta(FoldedHistogramSums(after), FoldedHistogramSums(before)),
            phase.totals.untimed_hist_sums);
  return phase;
}

/// Host figures of a phase as medians over consecutive batches of at
/// least 100 operations (up to five), so a burst of load from outside
/// the process that spans less than half the run does not move them.
struct HostSummary {
  size_t batches = 1;
  double ops_per_s = 0;
  double p50_us = 0;
  double tail_us = 0;
  Tail tail;  ///< Rule and sample count of the first batch's tail.
};

HostSummary SummarizeHost(const std::vector<double>& host_us) {
  HostSummary out;
  out.batches = std::clamp<size_t>(host_us.size() / 100, 1, 5);
  const size_t size = host_us.size() / out.batches;
  std::vector<double> rates, p50s, tails;
  for (size_t b = 0; b < out.batches; ++b) {
    const auto first = host_us.begin() + static_cast<ptrdiff_t>(b * size);
    const auto last = b + 1 == out.batches
                          ? host_us.end()
                          : first + static_cast<ptrdiff_t>(size);
    const std::vector<double> batch(first, last);
    const double seconds =
        std::accumulate(batch.begin(), batch.end(), 0.0) / 1e6;
    rates.push_back(seconds > 0 ? static_cast<double>(batch.size()) / seconds
                                : 0.0);
    p50s.push_back(Median(batch));
    const Tail tail = TailOf(batch);
    if (b == 0) out.tail = tail;
    tails.push_back(tail.value);
  }
  out.ops_per_s = Median(rates);
  out.p50_us = Median(p50s);
  out.tail_us = Median(tails);
  return out;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int64_t Count(const Phase& p, const char* name) {
  const auto it = p.counters.find(name);
  return it == p.counters.end() ? 0 : it->second;
}

double HistSum(const Phase& p, const char* name) {
  const auto it = p.hist_sums.find(name);
  return it == p.hist_sums.end() ? 0.0 : it->second;
}

/// Per-layer metrics from the traced phase: registry families, workload
/// extras and each layer's share of the traced host time. Shares and
/// simulated-time ratios keep layers a workload never enters at a plain
/// 0 ratio; the absolute milliseconds are in the "where did the time go"
/// table.
void LayerMetrics(const Phase& p, const LayerClock& clock,
                  std::map<std::string, Metric>* out) {
  auto put = [out](const std::string& name, double value,
                   const char* unit) {
    (*out)[name] = Metric{value, unit};
  };
  double host_ms = 0;
  for (const auto& [layer, us] : clock.self_us()) host_ms += us / 1000.0;
  auto share = [&clock, host_ms](const char* layer) {
    return Ratio(clock.SelfMs(layer), host_ms);
  };
  // Simulated time of a layer per simulated microsecond users waited.
  const double waited_us = std::accumulate(p.sim_us.begin(), p.sim_us.end(),
                                           0.0);
  put("trace.unit_host_ms", host_ms, "ms");
  // session
  put("session.host_self_share", share("session"), "ratio");
  put("session.events", Count(p, "session.events_total"), "count");
  put("session.deferred_ratio",
      Ratio(Count(p, "session.deferred_events_total"),
            Count(p, "session.events_total") +
                Count(p, "session.deferred_events_total")),
      "ratio");
  put("session.link_waits", Count(p, "session.link_waits_total"), "count");
  put("session.budget_deferred", Count(p, "session.budget_deferred_total"),
      "count");
  // server/prefetch
  const double takes = Count(p, "prefetch.hits") +
                       Count(p, "prefetch.partial_hits") +
                       Count(p, "prefetch.misses");
  put("prefetch.hit_ratio",
      Ratio(Count(p, "prefetch.hits") + Count(p, "prefetch.partial_hits"),
            takes),
      "ratio");
  put("prefetch.waste_ratio",
      Ratio(Count(p, "prefetch.wasted"), Count(p, "prefetch.issued")),
      "ratio");
  put("prefetch.issued", Count(p, "prefetch.issued"), "count");
  put("prefetch.peak_depth", p.totals.peak_prefetch_depth, "count");
  put("prefetch.wait_ratio", Ratio(HistSum(p, "prefetch.wait_us"), waited_us),
      "ratio");
  // server/router
  put("router.host_self_share", share("router"), "ratio");
  put("router.scatters",
      Count(p, "router.scatter_queries") + Count(p, "query.ranked_scatters"),
      "count");
  put("router.failovers", Count(p, "router.failovers_total"), "count");
  put("router.stats_delta_applies",
      Count(p, "router.stats_delta_applies_total"), "count");
  put("router.stats_full_adds", Count(p, "router.stats_full_adds_total"),
      "count");
  // server/object_server
  put("server.miniature_host_self_share", share("server.miniature"),
      "ratio");
  put("server.stage_host_self_share", share("server.stage"), "ratio");
  put("server.fetch_host_self_share", share("server.fetch"), "ratio");
  // server/workstation
  put("ws.host_self_share", share("ws"), "ratio");
  put("query.cache_hit_ratio",
      Ratio(Count(p, "query.cache_hits"),
            Count(p, "query.cache_hits") + Count(p, "query.cache_misses")),
      "ratio");
  // server/link
  put("link.bytes", Count(p, "link.bytes_total"), "count");
  put("link.transfers", Count(p, "link.transfers"), "count");
  put("link.busy_ratio", Ratio(Count(p, "link.busy_time_us"), waited_us),
      "ratio");
  put("link.host_self_share", share("link"), "ratio");
  // query
  put("query.host_self_share", share("query"), "ratio");
  const double scanned = Count(p, "query.postings_scanned");
  const double skipped = Count(p, "query.postings_skipped");
  put("query.postings_scanned", scanned, "count");
  put("query.postings_skipped", skipped, "count");
  put("query.visit_fraction", Ratio(scanned, scanned + skipped), "ratio");
  // storage
  const double hits = Count(p, "block_cache.hits");
  const double misses = Count(p, "block_cache.misses");
  put("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  put("cache.evictions", Count(p, "block_cache.evictions"), "count");
  const DeviceTotals& dev = p.totals.devices;
  put("device.blocks_read", static_cast<double>(dev.blocks_read), "count");
  put("device.blocks_written", static_cast<double>(dev.blocks_written),
      "count");
  put("device.seeks", static_cast<double>(dev.seeks), "count");
  put("device.busy_ratio", Ratio(static_cast<double>(dev.busy_us), waited_us),
      "ratio");
  put("storage.write_amp",
      Ratio(static_cast<double>(dev.blocks_written) * dev.block_size,
            p.totals.user_bytes),
      "ratio");
  // core / text / voice
  put("core.host_self_share", share("core"), "ratio");
  put("core.page_turns.visual", Count(p, "browser.visual.page_turns"),
      "count");
  put("core.page_turns.audio", Count(p, "browser.audio.page_turns"),
      "count");
  put("text.search_scanned_bytes", Count(p, "text.search.scanned_bytes"),
      "count");
  // obs
  put("trace.dropped_spans", static_cast<double>(p.dropped_spans), "count");
}

/// "Where did the time go": host self time, simulated time and span
/// count per layer for the traced phase.
void PrintTimeTable(const std::string& workload, const Phase& p,
                    const LayerClock& clock, double overhead) {
  std::map<std::string, double> sim_ms;
  sim_ms["session"] = (HistSum(p, "session.page_turn_us") +
                       HistSum(p, "session.open_us") +
                       HistSum(p, "session.search_us") +
                       HistSum(p, "session.append_us")) /
                      1000.0;
  sim_ms["router"] = HistSum(p, "router.gather_us") / 1000.0;
  sim_ms["link"] = Count(p, "link.busy_time_us") / 1000.0;
  sim_ms["storage"] =
      static_cast<double>(p.totals.devices.busy_us) / 1000.0;
  sim_ms["prefetch"] = HistSum(p, "prefetch.wait_us") / 1000.0;
  sim_ms["core"] = (HistSum(p, "browser.visual.page_turn_us") +
                    HistSum(p, "browser.audio.page_turn_us") +
                    HistSum(p, "presentation.open_us")) /
                   1000.0;
  std::set<std::string> names;
  for (const auto& [layer, us] : clock.self_us()) names.insert(layer);
  for (const auto& [layer, ms] : sim_ms) {
    if (ms > 0) names.insert(layer);
  }
  double total_ms = 0;
  for (const auto& [layer, us] : clock.self_us()) total_ms += us / 1000.0;
  std::printf("where did the time go (%s, traced phase, %zu ops):\n",
              workload.c_str(), p.host_us.size());
  std::printf("  %-18s %14s %7s %14s %10s\n", "layer", "host_self_ms",
              "share", "sim_ms", "spans");
  for (const std::string& layer : names) {
    const double host = clock.SelfMs(layer);
    const auto sim = sim_ms.find(layer);
    const auto spans = clock.spans().find(layer);
    char sim_text[32] = "-";
    if (sim != sim_ms.end()) {
      std::snprintf(sim_text, sizeof(sim_text), "%.1f", sim->second);
    }
    std::printf("  %-18s %14.1f %6.1f%% %14s %10lld\n", layer.c_str(), host,
                total_ms > 0 ? 100.0 * host / total_ms : 0.0, sim_text,
                static_cast<long long>(
                    spans == clock.spans().end() ? 0 : spans->second));
  }
  std::printf("  trace.overhead_ratio = %.4f (untraced / traced ops_per_s "
              "- 1)\n",
              overhead);
}

int Run(const Args& args) {
  // Declared before the workload so it outlives every component that
  // holds it.
  minos::WallClock wall;
  minos::obs::Tracer tracer(&wall);
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  workload->Prepare();
  std::printf("input: %s\n", workload->Describe().c_str());

  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;
  Phase measured;

  if (!args.trace) {
    // Set-up runs at least three times and until a second has passed (at
    // most nine); the last topology is the one measured.
    std::vector<double> setups;
    double setup_total = 0;
    while (setups.size() < 3 || (setup_total < 1.0 && setups.size() < 9)) {
      const double t0 = HostSeconds();
      workload->Build();
      setups.push_back(HostSeconds() - t0);
      setup_total += setups.back();
    }
    measured = Measure(*workload, args.seconds, nullptr, nullptr);
    const HostSummary host = SummarizeHost(measured.host_us);
    const Tail sim_tail = TailOf(measured.sim_us);
    metrics["setup_s"] = {Median(setups), "s"};
    metrics["ops_per_s"] = {host.ops_per_s, "1/s"};
    metrics["host_p50_us"] = {host.p50_us, "us"};
    metrics["host_tail_us"] = {host.tail_us, "us"};
    metrics["sim_mean_us"] = {Mean(measured.sim_us), "us"};
    metrics["sim_tail_us"] = {sim_tail.value, "us"};
    metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
    std::printf("ops=%zu timed_host_s=%.3f sim_samples=%zu setups=%zu\n",
                measured.host_us.size(), measured.HostTotalSeconds(),
                measured.sim_us.size(), setups.size());
    std::printf("host metrics = median over %zu batches of %zu ops; host "
                "tail = %s (%zu samples beyond, per batch); sim tail = %s "
                "(%zu samples beyond)\n",
                host.batches, measured.host_us.size() / host.batches,
                host.tail.label.c_str(), host.tail.beyond,
                sim_tail.label.c_str(), sim_tail.beyond);
    for (const auto& [name, metric] : metrics) {
      if (!(metric.value > 0)) {
        problems.push_back("end-to-end metric " + name + " is zero");
      }
    }
  } else {
    workload->Build();
    const Phase plain =
        Measure(*workload, args.seconds / 2, nullptr, nullptr);
    workload->SetTracer(&tracer);
    workload->Build();
    LayerClock layers;
    measured = Measure(*workload, args.seconds / 2, &tracer, &layers);
    const double overhead =
        Ratio(plain.OpsPerSecond(), measured.OpsPerSecond()) - 1.0;
    LayerMetrics(measured, layers, &metrics);
    metrics["trace.overhead_ratio"] = {overhead, "ratio"};
    RunProbes(&metrics);
    PrintTimeTable(args.workload, measured, layers, overhead);
    measured.attempted += plain.attempted;
    measured.failed += plain.failed;
    measured.truncated = measured.truncated || plain.truncated;
    if (measured.first_error.empty()) measured.first_error = plain.first_error;
    if (measured.dropped_spans != 0) {
      problems.push_back("trace ring dropped spans");
    }
  }

  if (measured.truncated) {
    problems.push_back("measuring stopped at the time cap; host too slow");
  }
  for (std::string& p : workload->Validate(measured.counters)) {
    problems.push_back("validation: " + p);
  }
  for (std::string& p : workload->Oracle()) {
    problems.push_back("oracle: " + p);
  }
  const double error_rate = Ratio(static_cast<double>(measured.failed),
                                  static_cast<double>(measured.attempted));
  std::printf("error_rate=%.6f (%lld failed / %lld attempted)%s%s\n",
              error_rate, static_cast<long long>(measured.failed),
              static_cast<long long>(measured.attempted),
              measured.first_error.empty() ? "" : " first: ",
              measured.first_error.c_str());
  for (const std::string& p : problems) std::printf("FAIL: %s\n", p.c_str());
  std::printf("%-32s %22s %s\n", "metric", "value", "unit");
  for (const auto& [name, metric] : metrics) {
    std::printf("%-32s %22.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const bool correct = measured.failed == 0 && problems.empty();
  PrintResultLine(correct, measured.attempted, measured.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: minos_perfbench --workload NAME --seed N --seconds "
                 "S --trace 0|1 [--workers W]\n");
    return 2;
  }
  return perfbench::Run(args);
}
