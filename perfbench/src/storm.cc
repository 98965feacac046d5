// storm: a steady population of mixed sessions multiplexed by one
// SessionManager over a four-shard fabric on the Instant device model.
// The timed unit is one PumpEpoch. Each session slot keeps one live
// session: when it closes (end of its object) or is reaped, a fresh
// session of the same class takes the slot and queues for admission, so
// every epoch after warm-up sees the same mix of opens, turns, searches,
// appends, admissions and reaps.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "minos/obs/metrics.h"
#include "minos/session/session_manager.h"
#include "minos/text/markup.h"
#include "workload.h"

namespace perfbench {
namespace {

using minos::Micros;
using minos::Random;
using minos::Status;
using minos::storage::ObjectId;
namespace session = minos::session;

enum class Profile : uint8_t { kSkimmer, kReader, kSearcher, kWriter, kIdler };

const char* ProfileName(Profile p) {
  switch (p) {
    case Profile::kSkimmer: return "skimmer";
    case Profile::kReader: return "reader";
    case Profile::kSearcher: return "searcher";
    case Profile::kWriter: return "writer";
    case Profile::kIdler: return "idler";
  }
  return "unknown";
}

/// The SESS-1 class mix: the first `cohort` slots mix all five classes
/// per 20 (10 skimmers, 5 readers, 2 searchers, 1 writer, 2 idlers); the
/// slots beyond the admission cap are readers and searchers.
Profile ProfileOf(int slot, int cohort) {
  if (slot < cohort) {
    const int r = slot % 20;
    if (r < 10) return Profile::kSkimmer;
    if (r < 15) return Profile::kReader;
    if (r < 17) return Profile::kSearcher;
    if (r < 18) return Profile::kWriter;
    return Profile::kIdler;
  }
  return slot % 4 < 3 ? Profile::kReader : Profile::kSearcher;
}

constexpr int kCadence = 4;     ///< Epochs between one session's actions.
constexpr int kSkimStride = 3;  ///< Skimmer page-turn delta.
constexpr int kParagraphs = 24;  ///< Per paged report.
constexpr size_t kCacheBlocks = 8192;  ///< Per shard; holds the hot set.
constexpr int kOracleEpochs = 12;  ///< Epochs a reduced-storm replay runs.

/// What differs between the measured storm and the oracle's reduced one.
struct StormConfig {
  int slots = 1200;             ///< Sessions alive (admitted or queued).
  size_t max_concurrent = 1000;
  int read_objects = 40;        ///< Paged reports the readers open.
  int writer_objects = 8;       ///< Short notes that only take appends.
  Micros advance_us = minos::MillisToMicros(1200);
  Micros idle_deadline_us = minos::SecondsToMicros(20);
};

StormConfig ReducedStorm() {
  StormConfig cfg;
  cfg.slots = 240;
  cfg.max_concurrent = 200;
  cfg.read_objects = 12;
  cfg.writer_objects = 4;
  cfg.advance_us = minos::MillisToMicros(150);
  cfg.idle_deadline_us = minos::SecondsToMicros(2);
  return cfg;
}

uint64_t Mix(uint64_t digest, uint64_t value) {
  return (digest ^ value) * 0x100000001b3ULL;
}

/// A short note for the writer class: appends re-archive the whole
/// object, so writer targets stay small.
minos::object::MultimediaObject WriterNote(ObjectId id) {
  minos::text::MarkupParser parser;
  auto doc = parser.Parse(".TITLE Log " + std::to_string(id) +
                          "\n.PP\nRunning log of findings.\n");
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

class Storm final : public Workload {
 public:
  Storm(uint64_t seed, int workers, StormConfig cfg)
      : seed_(seed), workers_(workers), cfg_(cfg) {
    minos::obs::MetricsRegistry& reg = minos::obs::MetricsRegistry::Default();
    deferred_ = reg.counter("session.deferred_events_total");
    link_waits_ = reg.counter("session.link_waits_total");
  }

  void Prepare() override {
    Random rng(seed_ * 0x9E3779B97F4A7C15ULL + 1);
    corpus_.clear();
    for (int i = 1; i <= cfg_.read_objects; ++i) {
      corpus_.push_back(PagedReport(static_cast<ObjectId>(i), rng,
                                    kParagraphs, 4));
    }
    for (int i = 1; i <= cfg_.writer_objects; ++i) {
      corpus_.push_back(
          WriterNote(static_cast<ObjectId>(cfg_.read_objects + i)));
    }
  }

  void Build() override {
    manager_.reset();
    fabric_ = std::make_unique<Fabric>(
        4, 2, minos::storage::DeviceCostModel::Instant(), 262144,
        kCacheBlocks, workers_);
    for (const minos::object::MultimediaObject& obj : corpus_) {
      if (!fabric_->router->Store(obj).ok()) {
        std::fprintf(stderr, "storm: store %llu failed\n",
                     static_cast<unsigned long long>(obj.id()));
        std::abort();
      }
    }

    session::SessionOptions options;
    options.max_concurrent = cfg_.max_concurrent;
    options.idle_deadline_us = cfg_.idle_deadline_us;
    options.prefetch_budget_bytes = 64 * 1024;
    options.streams_per_shard = 600;
    options.prefetch.max_inflight_per_pump = 4096;
    options.prefetch.ready_capacity = 8192;
    manager_ = std::make_unique<session::SessionManager>(
        fabric_->router.get(), &fabric_->clock, options);
    if (fabric_->pool != nullptr) manager_->SetTaskPool(fabric_->pool.get());
    if (tracer_ != nullptr) manager_->SetTracer(tracer_);
    minos::server::ShardRouter* router = fabric_->router.get();
    manager_->SetAppendHandler(
        [this, router](ObjectId id, const std::string& text) {
          user_bytes_ += static_cast<double>(text.size());
          minos::server::ObjectServer::AppendParts parts;
          parts.text = text;
          return router->Append(id, parts).status();
        });

    spawn_rng_ = Random(seed_ * 0xBF58476D1CE4E5B9ULL + 2);
    slot_of_.clear();
    const int cohort =
        std::min<int>(cfg_.slots, static_cast<int>(cfg_.max_concurrent));
    slots_.assign(static_cast<size_t>(cfg_.slots), Slot{});
    for (int i = 0; i < cfg_.slots; ++i) {
      slots_[static_cast<size_t>(i)].profile = ProfileOf(i, cohort);
      Spawn(static_cast<size_t>(i));
    }
    epoch_ = 0;
    digest_ = 0;
  }

  StepResult Step() override {
    const std::vector<session::SessionEvent> events = EventsFor(epoch_);
    // Every slot's session is live here (EventsFor respawns closed ones).
    std::vector<session::SessionState> before;
    before.reserve(events.size());
    for (const session::SessionEvent& ev : events) {
      before.push_back(manager_->state(ev.session));
    }
    const int64_t deferred0 = deferred_->value();
    const int64_t link_waits0 = link_waits_->value();
    StepResult result;
    result.layer = "session";
    std::vector<session::SessionOutcome> outcomes;
    TimeCall(&result, [&] { outcomes = manager_->PumpEpoch(events); });

    auto fail = [&result](const std::string& error) {
      if (result.failed) return;
      result.failed = true;
      result.error = "storm event: " + error;
    };
    int64_t unavailable = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const session::SessionOutcome& o = outcomes[i];
      digest_ = Mix(digest_, static_cast<uint64_t>(o.status.code()));
      digest_ = Mix(digest_, static_cast<uint64_t>(o.latency_us));
      digest_ = Mix(digest_, o.prefetch_hit ? 1 : 0);
      digest_ = Mix(digest_, o.results);
      Slot& slot = slots_[slot_of_.at(o.session)];
      if (o.status.ok()) {
        result.sim_us.push_back(static_cast<double>(o.latency_us));
        if (o.kind == session::SessionEvent::Kind::kOpen) slot.opened = true;
        continue;
      }
      // Expected, and resubmitted later: an event of a session queued for
      // admission, and an open the lease pool refused (Unavailable); an
      // event of a session the reaper closed at the start of this epoch
      // (NotFound). A failed fetch or append is neither.
      const Status::Code code = o.status.code();
      bool expected = false;
      if (code == Status::Code::kUnavailable) {
        ++unavailable;
        expected = before[i] == session::SessionState::kQueued ||
                   o.kind == session::SessionEvent::Kind::kOpen;
      } else if (code == Status::Code::kNotFound) {
        expected =
            manager_->state(o.session) == session::SessionState::kClosed;
      }
      if (!expected) fail(o.status.ToString());
    }
    // Each expected Unavailable is one the manager counted as an
    // admission deferral or a lease wait; an open whose staging fetch
    // failed with Unavailable is not.
    const int64_t counted = (deferred_->value() - deferred0) +
                            (link_waits_->value() - link_waits0);
    if (unavailable != counted) {
      fail(std::to_string(unavailable) + " Unavailable outcomes, " +
           std::to_string(counted) + " deferrals and lease waits");
    }
    minos::server::PrefetchQueue* queue = manager_->prefetch();
    peak_depth_ = std::max(
        peak_depth_,
        static_cast<double>(queue->queued_count() + queue->ready_count()));
    fabric_->clock.Advance(cfg_.advance_us);
    ++epoch_;
    return result;
  }

  double ops_per_second() const override { return 16; }

  std::string Describe() const override {
    return std::to_string(cfg_.slots) + " live sessions (admission cap " +
           std::to_string(cfg_.max_concurrent) + ") over 4 shards x " +
           std::to_string(cfg_.read_objects) + " reports + " +
           std::to_string(cfg_.writer_objects) + " writer notes, " +
           std::to_string(kCacheBlocks / 2) +
           " KiB block cache per shard; " + std::to_string(workers_) +
           " workers";
  }

  std::vector<std::string> Validate(
      const std::map<std::string, int64_t>& counters) const override {
    std::vector<std::string> problems;
    auto count = [&counters](const char* name) {
      const auto it = counters.find(name);
      return it == counters.end() ? int64_t{0} : it->second;
    };
    if (count("session.admission_queued_total") <= 0) {
      problems.push_back("no session queued for admission");
    }
    if (count("session.reaped_total") <= 0) {
      problems.push_back("idle reaper never fired");
    }
    if (count("prefetch.hits") <= 0) problems.push_back("no prefetch hits");
    if (peak_depth_ < 1000) {
      problems.push_back("prefetch peak depth " +
                         std::to_string(static_cast<int64_t>(peak_depth_)) +
                         " < 1000");
    }
    return problems;
  }

  /// A reduced storm run serially (no task pool) and on this run's pool
  /// must agree bit for bit: outcome digest, simulated waits, simulated
  /// time.
  std::vector<std::string> Oracle() override {
    struct Replay {
      uint64_t digest = 0;
      std::vector<double> sim;
      Micros elapsed = 0;
      bool failed = false;
    };
    auto replay = [this](int workers) {
      Storm mini(seed_, workers, ReducedStorm());
      mini.Prepare();
      mini.Build();
      Replay out;
      for (int e = 0; e < kOracleEpochs; ++e) {
        StepResult r = mini.Step();
        out.failed = out.failed || r.failed;
        out.sim.insert(out.sim.end(), r.sim_us.begin(), r.sim_us.end());
      }
      out.elapsed = mini.fabric_->clock.Now();
      out.digest = mini.digest_;
      return out;
    };
    const Replay serial = replay(0);
    const Replay pooled = replay(workers_);
    std::vector<std::string> problems;
    if (serial.failed || pooled.failed) {
      problems.push_back("reduced storm had failed events");
    }
    if (serial.digest != pooled.digest || serial.sim != pooled.sim ||
        serial.elapsed != pooled.elapsed) {
      problems.push_back("reduced storm serial and on " +
                         std::to_string(workers_) +
                         " workers diverges (digest or simulated time)");
    }
    return problems;
  }

  void ResetTotals() override {
    if (fabric_ != nullptr) {
      for (auto& stack : fabric_->stacks) stack->device.ResetStats();
    }
    user_bytes_ = 0;
    peak_depth_ = 0;
  }

  WorkloadTotals Totals() const override {
    WorkloadTotals t;
    if (fabric_ != nullptr) {
      for (const auto& stack : fabric_->stacks) t.devices.Add(stack->device);
    }
    t.user_bytes = user_bytes_;
    t.peak_prefetch_depth = peak_depth_;
    return t;
  }

 private:
  /// One session slot: the class is fixed, the session in it is replaced
  /// whenever it ends.
  struct Slot {
    Profile profile = Profile::kReader;
    session::SessionId id = 0;
    ObjectId object = 0;
    uint64_t search = 0;
    bool opened = false;
  };

  /// Opens a fresh session in `slot` (queued when the cap is reached).
  void Spawn(size_t slot_index) {
    Slot& slot = slots_[slot_index];
    slot.object = static_cast<ObjectId>(
        1 + spawn_rng_.Uniform(static_cast<uint64_t>(cfg_.read_objects)));
    slot.search = spawn_rng_.Uniform(4);
    slot.opened = false;
    slot.id = manager_->Open(ProfileName(slot.profile));
    slot_of_[slot.id] = slot_index;
  }

  std::vector<session::SessionEvent> EventsFor(int epoch) {
    std::vector<session::SessionEvent> events;
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      // Closed (finished or reaped): a fresh session takes the slot.
      if (manager_->state(s.id) == session::SessionState::kClosed) Spawn(i);
      if ((static_cast<int>(i) + epoch) % kCadence != 0) continue;
      session::SessionEvent ev;
      ev.session = s.id;
      switch (s.profile) {
        case Profile::kSkimmer:
        case Profile::kReader:
        case Profile::kIdler:
          if (!s.opened) {
            ev.kind = session::SessionEvent::Kind::kOpen;
            ev.object = s.object;
          } else if (s.profile == Profile::kIdler) {
            continue;  // Opened once; waits for the reaper.
          } else if (manager_->page(s.id) >= manager_->page_count(s.id)) {
            ev.kind = session::SessionEvent::Kind::kClose;
          } else {
            ev.kind = session::SessionEvent::Kind::kPageTurn;
            ev.delta = s.profile == Profile::kSkimmer ? kSkimStride : 1;
          }
          break;
        case Profile::kSearcher: {
          ev.kind = session::SessionEvent::Kind::kSearch;
          static const char* const kWords[4][2] = {{"multimedia", nullptr},
                                                   {"presentation", nullptr},
                                                   {"archived", "objects"},
                                                   {"report", nullptr}};
          for (const char* w : kWords[(s.search + epoch) % 4]) {
            if (w != nullptr) ev.words.push_back(w);
          }
          ev.words.push_back(VocabWord((s.search * 31 + epoch) % 24));
          break;
        }
        case Profile::kWriter:
          ev.kind = session::SessionEvent::Kind::kAppend;
          ev.object = static_cast<ObjectId>(
              cfg_.read_objects + 1 + i % cfg_.writer_objects);
          ev.append_text = "Finding " + std::to_string(epoch) + " from " +
                           std::to_string(i) + " " +
                           VocabWord(s.search * 97 + epoch) + ".";
          break;
      }
      events.push_back(std::move(ev));
    }
    return events;
  }

  uint64_t seed_;
  int workers_;
  StormConfig cfg_;
  std::vector<minos::object::MultimediaObject> corpus_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<session::SessionManager> manager_;
  Random spawn_rng_{0};
  std::vector<Slot> slots_;
  std::unordered_map<session::SessionId, size_t> slot_of_;
  minos::obs::Counter* deferred_;
  minos::obs::Counter* link_waits_;
  int epoch_ = 0;
  uint64_t digest_ = 0;
  double user_bytes_ = 0;
  double peak_depth_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeStorm(uint64_t seed, int workers) {
  return std::make_unique<Storm>(seed, workers, StormConfig{});
}

}  // namespace perfbench
