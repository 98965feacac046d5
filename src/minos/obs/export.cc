#include "minos/obs/export.h"

#include <fstream>

#include "minos/obs/json.h"

namespace minos::obs {

namespace {

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot write '" + path + "'");
  out << contents;
  out.flush();
  if (!out) return Status::Internal("short write to '" + path + "'");
  return Status::OK();
}

void AppendHistogramJson(const HistogramSummary& h, std::string* out) {
  *out += "{\"count\":" + std::to_string(h.count);
  *out += ",\"sum\":" + JsonNumber(h.sum);
  *out += ",\"min\":" + JsonNumber(h.min);
  *out += ",\"max\":" + JsonNumber(h.max);
  *out += ",\"mean\":" + JsonNumber(h.mean);
  *out += ",\"p50\":" + JsonNumber(h.p50);
  *out += ",\"p90\":" + JsonNumber(h.p90);
  *out += ",\"p99\":" + JsonNumber(h.p99);
  *out += "}";
}

}  // namespace

std::string SnapshotToJson(const MetricsSnapshot& snapshot,
                           const SnapshotMeta& meta) {
  std::string out = "{\"schema\":\"";
  out += kMetricsSchema;
  out += "\",\"bench\":\"" + JsonEscape(meta.bench) + "\"";
  out += ",\"sim_time_us\":" + std::to_string(meta.sim_time_us);
  out += ",\"workers\":" + std::to_string(meta.workers);
  out += ",\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += JsonEscape(snapshot.counters[i].first);
    out += "\":";
    out += std::to_string(snapshot.counters[i].second);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += JsonEscape(snapshot.gauges[i].first);
    out += "\":";
    out += JsonNumber(snapshot.gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += JsonEscape(snapshot.histograms[i].name);
    out += "\":";
    AppendHistogramJson(snapshot.histograms[i], &out);
  }
  out += "}}";
  return out;
}

Status WriteSnapshotJson(const MetricsRegistry& registry,
                         const std::string& path, const SnapshotMeta& meta) {
  return WriteFile(path, SnapshotToJson(registry.Snapshot(), meta) + "\n");
}

}  // namespace minos::obs
