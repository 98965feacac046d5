// ingest: one writer on a four-shard fabric (replication 2, optical
// WORM model). The script interleaves, per four writes, one
// ShardRouter::Store of a new object, two text appends and one voice
// append to existing objects; the timed unit is one Store or Append.
// After every eight writes a read-your-writes probe runs untimed: each
// of those writes must come back from a ranked query on its unique
// token, and each appended object must Fetch with its appended content.
// A round is a fixed number of writes on a fresh fabric; rounds repeat.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minos/obs/metrics.h"
#include "minos/text/markup.h"
#include "workload.h"

namespace perfbench {
namespace {

using minos::Micros;
using minos::Random;
using minos::storage::ObjectId;
namespace query = minos::query;

constexpr int kBaseObjects = 64;   ///< Loaded at set-up.
constexpr int kRoundWrites = 1024;  ///< Timed writes per round.
constexpr int kProbeEvery = 8;     ///< Writes between read-your-writes probes.

/// A two-paragraph text object; `token` (when set) closes its text.
minos::object::MultimediaObject SmallReport(ObjectId id, Random& rng,
                                            const std::string& token) {
  std::string markup = ".TITLE Note " + std::to_string(id) + "\n";
  for (int p = 0; p < 2; ++p) {
    markup += ".PP\n";
    for (int w = 0; w < 40; ++w) {
      markup += VocabWord(SkewedIndex(rng, 400)) + " ";
    }
    markup += "\n";
  }
  if (!token.empty()) markup += ".PP\n" + token + "\n";
  minos::text::MarkupParser parser;
  auto doc = parser.Parse(markup);
  minos::object::MultimediaObject obj(id);
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 12;
  if (!doc.ok() || !obj.SetTextPart(std::move(doc).value()).ok()) {
    std::abort();
  }
  minos::object::VisualPageSpec page;
  page.text_page = 1;
  obj.descriptor().pages.push_back(page);
  if (!obj.Archive().ok()) std::abort();
  return obj;
}

/// One write of the round, and what read-your-writes must see after it.
struct Write {
  enum class Kind { kStore, kText, kVoice } kind = Kind::kStore;
  ObjectId id = 0;
  std::string token;  ///< Unique word the write adds.
  std::string text;   ///< Text or spoken words appended.
};

class Ingest final : public Workload {
 public:
  Ingest(uint64_t seed, int workers) : seed_(seed), workers_(workers) {
    minos::obs::MetricsRegistry& reg = minos::obs::MetricsRegistry::Default();
    full_adds_ = reg.counter("router.stats_full_adds_total");
    delta_applies_ = reg.counter("router.stats_delta_applies_total");
  }

  void Prepare() override {
    Random rng(seed_ * 0x9E3779B97F4A7C15ULL + 5);
    base_.clear();
    for (ObjectId id = 1; id <= kBaseObjects; ++id) {
      base_.push_back(SmallReport(id, rng, ""));
    }
  }

  void Build() override {
    fabric_ = std::make_unique<Fabric>(
        4, 2, minos::storage::DeviceCostModel::OpticalDisk(), 262144, 512,
        workers_);
    for (const minos::object::MultimediaObject& obj : base_) {
      if (!fabric_->router->Store(obj).ok()) std::abort();
    }
    ResetDevices();  // The base objects' writes are set-up, not the script.
    if (tracer_ != nullptr) fabric_->router->SetTracer(tracer_);
    script_rng_ = Random(seed_ * 0xBF58476D1CE4E5B9ULL + 6);
    next_id_ = kBaseObjects + 1;
    written_ = 0;
    appends_planned_ = 0;
    pending_.clear();
  }

  StepResult Step() override {
    if (written_ == kRoundWrites) Untimed([this] { Build(); });
    Write w = NextWrite();
    minos::server::ShardRouter& router = *fabric_->router;

    // Inputs are prepared before the timed window.
    std::optional<minos::object::MultimediaObject> stored;
    minos::server::ObjectServer::AppendParts parts;
    if (w.kind == Write::Kind::kStore) {
      stored = SmallReport(w.id, script_rng_, w.token);
      user_bytes_ += static_cast<double>(
          stored->SerializeArchived().value().size());
    } else if (w.kind == Write::Kind::kText) {
      parts.text = w.text;
      user_bytes_ += static_cast<double>(parts.text.size());
    } else {
      parts.voice = SpeakText(w.text);
      user_bytes_ += static_cast<double>(parts.voice.pcm.size() * 2);
    }

    StepResult result;
    result.layer = "router";
    const int64_t full0 = full_adds_->value();
    const int64_t delta0 = delta_applies_->value();
    const Micros sim0 = fabric_->clock.Now();
    bool ok = false;
    TimeCall(&result, [&] {
      if (stored.has_value()) {
        ok = router.Store(*stored).ok();
      } else {
        ok = router.Append(w.id, parts).ok();
      }
    });
    result.sim_us.push_back(
        static_cast<double>(fabric_->clock.Now() - sim0));
    timed_full_adds_ += full_adds_->value() - full0;
    timed_delta_applies_ += delta_applies_->value() - delta0;
    (stored.has_value() ? stores_ : appends_) += ok ? 1 : 0;
    ++written_;
    if (!ok) {
      result.failed = true;
      result.error = "write of object " + std::to_string(w.id) + " failed";
      return result;
    }
    pending_.push_back(std::move(w));
    if (pending_.size() == kProbeEvery) {
      std::string problem;
      Untimed([&] { problem = ProbeReadYourWrites(); });
      if (!problem.empty()) {
        result.failed = true;
        result.error = problem;
      }
      pending_.clear();
    }
    return result;
  }

  double ops_per_second() const override { return 700; }

  std::string Describe() const override {
    return std::to_string(kBaseObjects) + " base objects on 4 shards "
           "(replication 2, optical WORM); per 4 writes 1 Store : 2 text "
           "Append : 1 voice Append, " + std::to_string(kRoundWrites) +
           " writes per round, read-your-writes probe every " +
           std::to_string(kProbeEvery) + " writes; " +
           std::to_string(workers_) + " workers";
  }

  std::vector<std::string> Validate(
      const std::map<std::string, int64_t>&) const override {
    std::vector<std::string> problems;
    if (timed_delta_applies_ != appends_) {
      problems.push_back("stats delta applies " +
                         std::to_string(timed_delta_applies_) +
                         " != appends " + std::to_string(appends_));
    }
    if (timed_full_adds_ != stores_) {
      problems.push_back("stats full adds " +
                         std::to_string(timed_full_adds_) + " != stores " +
                         std::to_string(stores_));
    }
    if (appends_ == 0 || stores_ == 0) problems.push_back("no writes");
    return problems;
  }

  void ResetTotals() override {
    banked_ = DeviceTotals{};
    ResetDevices();
    user_bytes_ = 0;
    stores_ = appends_ = 0;
    timed_full_adds_ = timed_delta_applies_ = 0;
    untimed_counters_.clear();
    untimed_hist_sums_.clear();
  }

  WorkloadTotals Totals() const override {
    WorkloadTotals t;
    t.devices = banked_;
    if (fabric_ != nullptr) {
      for (const auto& stack : fabric_->stacks) t.devices.Add(stack->device);
    }
    t.user_bytes = user_bytes_;
    t.untimed_counters = untimed_counters_;
    t.untimed_hist_sums = untimed_hist_sums_;
    return t;
  }

 private:
  Write NextWrite() {
    Write w;
    const int slot = written_ % 4;
    w.token = "tok" + VocabWord(seed_ % 4096) + "q" +
              VocabWord(static_cast<uint64_t>(written_));
    if (slot == 0) {
      w.kind = Write::Kind::kStore;
      w.id = next_id_++;
      return w;
    }
    w.kind = slot == 3 ? Write::Kind::kVoice : Write::Kind::kText;
    // Targets rotate through every stored object, so objects grow evenly
    // and the write-cost tail does not hinge on which ids the seed picks.
    w.id = 1 + appends_planned_++ % (next_id_ - 1);
    w.text = "Addendum " + VocabWord(SkewedIndex(script_rng_, 400)) +
             " notes " + w.token + " for the record";
    return w;
  }

  /// Every pending write must be visible: its token ranks its object,
  /// and an appended object fetches with the appended content at its
  /// end (text) or among its voice words (speech).
  std::string ProbeReadYourWrites() {
    minos::server::ShardRouter& router = *fabric_->router;
    for (const Write& w : pending_) {
      const std::vector<query::ScoredHit> hits =
          router.QueryRanked({w.token}, 4, query::QueryMode::kDisjunctive);
      bool found = false;
      for (const query::ScoredHit& h : hits) found = found || h.id == w.id;
      if (!found) {
        return "read-your-writes: token of object " + std::to_string(w.id) +
               " not ranked";
      }
      if (w.kind == Write::Kind::kStore) continue;
      auto fetched = router.Fetch(w.id);
      if (!fetched.ok()) {
        return "read-your-writes: fetch of " + std::to_string(w.id) +
               " failed";
      }
      bool has = false;
      if (w.kind == Write::Kind::kText) {
        const std::string& contents = fetched->text_part().contents();
        has = contents.size() >= w.text.size() &&
              contents.find(w.text) != std::string::npos;
      } else if (fetched->has_voice()) {
        for (const minos::voice::WordAlignment& word :
             fetched->voice_part().track().words) {
          has = has || word.word == w.token;
        }
      }
      if (!has) {
        return "read-your-writes: object " + std::to_string(w.id) +
               " fetched without its appended content";
      }
    }
    return "";
  }

  void ResetDevices() {
    if (fabric_ == nullptr) return;
    for (auto& stack : fabric_->stacks) stack->device.ResetStats();
  }

  /// Runs work a step does outside its timed call (a round's rebuild, a
  /// read-your-writes probe) so that the phase's figures keep only the
  /// timed writes: the devices' counts so far are banked and the work's
  /// own device counts dropped, and its registry deltas are booked as
  /// untimed for main.cc to subtract.
  template <typename Fn>
  void Untimed(Fn&& fn) {
    minos::obs::MetricsRegistry& reg = minos::obs::MetricsRegistry::Default();
    const minos::obs::MetricsSnapshot before = reg.Snapshot();
    if (fabric_ != nullptr) {
      for (const auto& stack : fabric_->stacks) banked_.Add(stack->device);
    }
    fn();
    ResetDevices();
    const minos::obs::MetricsSnapshot after = reg.Snapshot();
    const std::map<std::string, int64_t> c0 = FoldedCounters(before);
    for (const auto& [name, value] : FoldedCounters(after)) {
      const auto it = c0.find(name);
      untimed_counters_[name] += value - (it == c0.end() ? 0 : it->second);
    }
    const std::map<std::string, double> h0 = FoldedHistogramSums(before);
    for (const auto& [name, value] : FoldedHistogramSums(after)) {
      const auto it = h0.find(name);
      untimed_hist_sums_[name] += value - (it == h0.end() ? 0 : it->second);
    }
  }

  uint64_t seed_;
  int workers_;
  minos::obs::Counter* full_adds_;
  minos::obs::Counter* delta_applies_;
  std::vector<minos::object::MultimediaObject> base_;
  std::unique_ptr<Fabric> fabric_;
  Random script_rng_{0};
  ObjectId next_id_ = 1;
  int written_ = 0;
  uint64_t appends_planned_ = 0;
  std::vector<Write> pending_;
  DeviceTotals banked_;  ///< Timed device counts of earlier stretches.
  std::map<std::string, int64_t> untimed_counters_;
  std::map<std::string, double> untimed_hist_sums_;
  double user_bytes_ = 0;
  int64_t stores_ = 0;
  int64_t appends_ = 0;
  int64_t timed_full_adds_ = 0;
  int64_t timed_delta_applies_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngest(uint64_t seed, int workers) {
  return std::make_unique<Ingest>(seed, workers);
}

}  // namespace perfbench
