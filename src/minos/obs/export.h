#ifndef MINOS_OBS_EXPORT_H_
#define MINOS_OBS_EXPORT_H_

#include <string>

#include "minos/obs/metrics.h"
#include "minos/util/clock.h"
#include "minos/util/status.h"

namespace minos::obs {

/// Header fields of an exported snapshot — the `BENCH_*.json` trajectory
/// format every bench run and the `--stats` tool flag produce.
struct SnapshotMeta {
  std::string bench;        ///< Experiment / scenario identifier.
  Micros sim_time_us = 0;   ///< SimClock reading at export time.
  /// Worker threads the run's task pool used (1 = serial). A header
  /// dimension, deliberately not a gauge: the determinism matrix diffs
  /// the metric sections byte-for-byte across worker counts, and the
  /// one field allowed to differ must live outside them.
  int workers = 1;
};

/// Schema identifier written into every snapshot.
inline constexpr char kMetricsSchema[] = "minos.metrics.v1";

/// Serializes a snapshot as one JSON document:
///   {"schema":"minos.metrics.v1","bench":...,"sim_time_us":...,
///    "workers":...,"counters":{name:value,...},"gauges":{...},
///    "histograms":{name:{"count":..,"sum":..,"min":..,"max":..,
///                        "mean":..,"p50":..,"p90":..,"p99":..},...}}
std::string SnapshotToJson(const MetricsSnapshot& snapshot,
                           const SnapshotMeta& meta = {});

/// Snapshots `registry` and writes the JSON document to `path`.
Status WriteSnapshotJson(const MetricsRegistry& registry,
                         const std::string& path,
                         const SnapshotMeta& meta = {});

}  // namespace minos::obs

#endif  // MINOS_OBS_EXPORT_H_
