#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <tuple>

namespace perfbench {

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  static const std::pair<double, const char*> kCandidates[] = {
      {99, "p99"}, {95, "p95"}, {90, "p90"}, {75, "p75"}, {50, "p50"}};
  for (const auto& [pct, label] : kCandidates) {
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(
            std::ceil(pct / 100.0 * static_cast<double>(values.size()))),
        1, values.size());
    const size_t beyond = values.size() - rank;
    if (beyond >= 10 || pct == 50) {
      tail.value = values[rank - 1];
      tail.label = label;
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

namespace {

/// Folds one metric name into its family: digit runs that number an
/// instance scope are dropped ("link37." -> "link.", "shard2." ->
/// "shard."). Only scope segments are folded, so names such as
/// "query.topk_us.10k" in other families are left alone.
std::string FamilyName(const std::string& name) {
  static const char* const kScopes[] = {"link", "block_cache", "fault",
                                        "shard"};
  std::string out;
  size_t i = 0;
  while (i < name.size()) {
    bool folded = false;
    for (const char* scope : kScopes) {
      const std::string s(scope);
      const bool at_segment = i == 0 || name[i - 1] == '.';
      if (at_segment && name.compare(i, s.size(), s) == 0) {
        size_t j = i + s.size();
        size_t digits = j;
        while (digits < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[digits]))) {
          ++digits;
        }
        if (digits > j && (digits == name.size() || name[digits] == '.')) {
          out += s;
          i = digits;
          folded = true;
          break;
        }
      }
    }
    if (!folded) out += name[i++];
  }
  return out;
}

}  // namespace

std::map<std::string, int64_t> FoldedCounters(
    const minos::obs::MetricsSnapshot& snapshot) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : snapshot.counters) {
    out[FamilyName(name)] += value;
  }
  return out;
}

std::map<std::string, double> FoldedHistogramSums(
    const minos::obs::MetricsSnapshot& snapshot) {
  std::map<std::string, double> out;
  for (const minos::obs::HistogramSummary& h : snapshot.histograms) {
    out[FamilyName(h.name)] += h.sum;
  }
  return out;
}

std::string LayerOfSpan(const std::string& name) {
  auto starts = [&name](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts("bench.")) return "";
  if (starts("session")) return "session";
  if (starts("ws.")) return "ws";
  if (starts("open#") || starts("enter#") || starts("tour#")) return "core";
  if (starts("router.")) return "router";
  if (starts("server.score")) return "query";
  if (starts("server.miniature") || starts("server.gather")) {
    return "server.miniature";
  }
  if (starts("server.stage")) return "server.stage";
  if (starts("server.fetch") || starts("server.region") ||
      starts("retry.")) {
    return "server.fetch";
  }
  if (starts("link.")) return "link";
  if (starts("scheduler.")) return "storage";
  if (starts("repair.")) return "repair";
  return "other";
}

void LayerClock::AddUnit(const std::string& unit_layer,
                         minos::Micros start_us, minos::Micros end_us,
                         const std::vector<minos::obs::SpanRecord>& spans) {
  struct Edge {
    minos::Micros t;
    bool open;
    size_t index;
  };
  std::vector<Edge> edges;
  std::vector<std::string> layers(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const minos::obs::SpanRecord& span = spans[i];
    const minos::Micros a = std::max(span.start_us, start_us);
    const minos::Micros b = std::min(span.end_us, end_us);
    if (b <= a) continue;
    layers[i] = LayerOfSpan(span.name);
    if (layers[i].empty()) layers[i] = unit_layer;
    ++spans_[layers[i]];
    edges.push_back({a, true, i});
    edges.push_back({b, false, i});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    return x.t < y.t;
  });
  // Deepest first, then earliest start, then lowest id.
  using Key = std::tuple<int, minos::Micros, uint64_t, size_t>;
  std::set<Key> open;
  auto key_of = [&spans](size_t i) {
    return Key{-spans[i].depth, spans[i].start_us, spans[i].span_id, i};
  };
  auto charge = [&](minos::Micros from, minos::Micros to) {
    if (to <= from) return;
    const std::string& layer =
        open.empty() ? unit_layer : layers[std::get<3>(*open.begin())];
    self_us_[layer] += static_cast<double>(to - from);
  };
  minos::Micros cursor = start_us;
  for (const Edge& edge : edges) {
    charge(cursor, edge.t);
    cursor = std::max(cursor, edge.t);
    if (edge.open) {
      open.insert(key_of(edge.index));
    } else {
      open.erase(key_of(edge.index));
    }
  }
  charge(cursor, end_us);
}

double LayerClock::SelfMs(const std::string& layer) const {
  const auto it = self_us_.find(layer);
  return it == self_us_.end() ? 0.0 : it->second / 1000.0;
}

void PrintResultLine(bool correct, int64_t attempted, int64_t failed,
                     const std::map<std::string, Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
