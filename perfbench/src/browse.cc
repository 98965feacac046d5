// browse: one user at a Workstation with prefetch enabled, over one
// ObjectServer (optical disk + Ethernet). A session runs a ranked query,
// walks the miniature strip, presents a report and pages through it,
// then runs the same command script on the report's audio-mode twin,
// enters and returns from a relevant object and plays a tour. The timed
// unit is one user command; a fixed simulated reading time separates
// commands. Sessions repeat on the same workstation until time is up.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minos/core/audio_browser.h"
#include "minos/core/visual_browser.h"
#include "minos/render/screen.h"
#include "minos/server/workstation.h"
#include "minos/voice/recognizer.h"
#include "workload.h"

namespace perfbench {
namespace {

using minos::Micros;
using minos::Random;
using minos::Status;
using minos::storage::ObjectId;
namespace core = minos::core;
namespace object = minos::object;
namespace server = minos::server;
namespace text = minos::text;

constexpr int kTopics = 3;
/// Two chapters of three paragraphs each: enough structure for logical
/// browsing while the audio twin (about 1 MiB of speech) stays small
/// enough not to dominate every session's host time.
constexpr int kParagraphs = 6;
constexpr int kChapterEvery = 3;
constexpr ObjectId kAudioBase = 10;   ///< Audio twin of topic t: 11 + t.
constexpr ObjectId kTargetBase = 20;  ///< Relevant-object targets 21, 22.
constexpr ObjectId kParent = 30;      ///< Map with links and a tour.
constexpr Micros kReadingUs = minos::MillisToMicros(1000);
constexpr const char* kPattern = "presentation";

/// The map parent: a text page over a labeled map, two relevant-object
/// indicators on the map, and a four-stop tour over it.
object::MultimediaObject ParentObject(uint64_t salt) {
  object::MultimediaObject parent(kParent);
  parent.descriptor().layout.width = 48;
  parent.descriptor().layout.height = 12;
  Random rng(salt);
  if (!parent.SetTextPart(SeededReport(rng, 1, "atlas")).ok()) std::abort();
  auto map = parent.AddImage(SeededMap(280, 180, salt));
  if (!map.ok()) std::abort();
  object::VisualPageSpec page;
  page.text_page = 1;
  page.images.push_back({*map, minos::image::Rect{20, 60, 280, 180}});
  parent.descriptor().pages.push_back(page);
  for (ObjectId target : {kTargetBase + 1, kTargetBase + 2}) {
    object::RelevantObjectLink link;
    link.target = target;
    link.indicator_label = "sites " + std::to_string(target);
    link.parent_image_index = *map;
    parent.descriptor().relevant_objects.push_back(link);
  }
  object::ObjectDescriptor::TourSpec tour;
  tour.image_index = *map;
  tour.view_width = 120;
  tour.view_height = 90;
  tour.positions = {{0, 0}, {80, 30}, {150, 60}, {40, 80}};
  tour.audio_messages = {"the tour starts at the station", "",
                         "the market lies ahead", "the tour ends here"};
  parent.descriptor().tours.push_back(tour);
  if (!parent.Archive().ok()) std::abort();
  return parent;
}

class Browse final : public Workload {
 public:
  Browse(uint64_t seed, int workers) : seed_(seed), workers_(workers) {}

  void Prepare() override {
    Random rng(seed_ * 0x9E3779B97F4A7C15ULL + 7);
    corpus_.clear();
    docs_.clear();
    page_counts_.clear();
    indexes_.clear();
    minos::voice::RecognizerParams perfect;
    perfect.hit_rate = 1.0;
    perfect.false_alarm_rate = 0.0;
    const minos::voice::Recognizer recognizer({kPattern}, perfect);
    for (int t = 0; t < kTopics; ++t) {
      corpus_.push_back(
          PagedReport(1 + t, rng, kParagraphs, 2, Topic(t), kChapterEvery));
      const object::MultimediaObject& visual = corpus_.back();
      docs_.push_back(visual.text_part());
      page_counts_.push_back(visual.descriptor().pages.size());
      corpus_.push_back(AudioTwin(kAudioBase + 1 + t, docs_.back()));
      indexes_.push_back(minos::voice::Recognizer::BuildIndex(
          recognizer.Recognize(corpus_.back().voice_part().track())
              .utterances));
    }
    for (ObjectId target : {kTargetBase + 1, kTargetBase + 2}) {
      corpus_.push_back(PagedReport(target, rng, 2, 1));
    }
    corpus_.push_back(ParentObject(rng.Next64()));
  }

  void Build() override {
    strip_.reset();
    ws_.reset();
    stack_.reset();
    pool_.reset();
    clock_ = std::make_unique<minos::SimClock>();
    stack_ = std::make_unique<ShardStack>(
        clock_.get(), minos::storage::DeviceCostModel::OpticalDisk(),
        262144, 2048);
    for (const object::MultimediaObject& obj : corpus_) {
      if (!stack_->server.Store(obj).ok()) std::abort();
    }
    ws_ = std::make_unique<server::Workstation>(&stack_->server, &screen_,
                                                clock_.get());
    ws_->EnablePrefetch();
    if (workers_ > 0) {
      pool_ = std::make_unique<minos::runtime::TaskPool>(clock_.get(),
                                                         workers_);
      ws_->SetTaskPool(pool_.get());
    }
    if (tracer_ != nullptr) ws_->SetTracer(tracer_);
    script_rng_ = Random(seed_ * 0xBF58476D1CE4E5B9ULL + 8);
    sessions_planned_ = 0;
    commands_.clear();
    next_ = 0;
  }

  StepResult Step() override {
    if (next_ == commands_.size()) PlanSession();
    const Command& command = commands_[next_++];
    clock_->Advance(kReadingUs);  // The user reads before acting.
    StepResult result;
    result.layer = command.layer;
    const Micros sim0 = clock_->Now();
    Status status = Status::OK();
    TimeCall(&result, [&] {
      std::optional<minos::obs::TraceSpan> root;
      if (tracer_ != nullptr) root = tracer_->StartSpan("bench.command");
      status = command.run();
    });
    result.sim_us.push_back(static_cast<double>(clock_->Now() - sim0));
    server::PrefetchQueue* queue = ws_->prefetch();
    peak_depth_ = std::max(
        peak_depth_,
        static_cast<double>(queue->queued_count() + queue->ready_count()));
    if (!status.ok()) {
      result.failed = true;
      result.error = command.name + ": " + status.ToString();
    } else if (command.check) {
      const std::string problem = command.check();
      if (!problem.empty()) {
        result.failed = true;
        result.error = command.name + ": " + problem;
      }
    }
    return result;
  }

  /// Twelve sessions of the script per second.
  double ops_per_second() const override {
    return 12.0 * kCommandsPerSession;
  }

  std::string Describe() const override {
    return std::to_string(kTopics) + " reports (" +
           std::to_string(kParagraphs) +
           " paragraphs) + audio twins, 2 relevant targets, 1 map with a "
           "tour, on one optical server; " +
           std::to_string(kCommandsPerSession) +
           " commands per session, " +
           std::to_string(kReadingUs / 1000) + " ms reading time; " +
           std::to_string(workers_) + " workers";
  }

  std::vector<std::string> Validate(
      const std::map<std::string, int64_t>& counters) const override {
    std::vector<std::string> problems;
    auto count = [&counters](const char* name) {
      const auto it = counters.find(name);
      return it == counters.end() ? int64_t{0} : it->second;
    };
    if (count("browser.visual.page_turns") <= 0) {
      problems.push_back("no visual page turns");
    }
    if (count("browser.audio.page_turns") <= 0) {
      problems.push_back("no audio page turns");
    }
    if (count("prefetch.hits") <= 0) problems.push_back("no prefetch hits");
    return problems;
  }

  void ResetTotals() override {
    if (stack_ != nullptr) stack_->device.ResetStats();
    peak_depth_ = 0;
  }

  WorkloadTotals Totals() const override {
    WorkloadTotals t;
    if (stack_ != nullptr) t.devices.Add(stack_->device);
    t.peak_prefetch_depth = peak_depth_;
    return t;
  }

 private:
  struct Command {
    std::string name;
    std::string layer;  ///< "ws" or "core".
    std::function<Status()> run;
    std::function<std::string()> check;  ///< Optional output oracle.
  };

  static constexpr int kCommandsPerSession = 27;

  static std::string Topic(int t) { return "topic" + VocabWord(900 + t); }

  core::VisualBrowser* Visual() {
    return ws_->presentation().visual_browser();
  }
  core::AudioBrowser* Audio() {
    return ws_->presentation().audio_browser();
  }

  void Add(std::string name, std::string layer, std::function<Status()> run,
           std::function<std::string()> check = nullptr) {
    commands_.push_back(
        {std::move(name), std::move(layer), std::move(run), std::move(check)});
  }

  /// Status of `fn` applied to the open browser, or FailedPrecondition.
  template <typename Browser, typename Fn>
  static Status On(Browser* browser, const Fn& fn) {
    if (browser == nullptr) {
      return Status::FailedPrecondition("no browser of that mode open");
    }
    return fn(*browser);
  }

  /// One command of the shared script, as each browser performs it.
  struct Symmetric {
    std::string name;
    std::function<Status(core::VisualBrowser&)> visual;
    std::function<Status(core::AudioBrowser&)> audio;
  };

  /// A command both browsers spell the same way.
  template <typename Op>
  static Symmetric Both(std::string name, Op op) {
    return {std::move(name), op, op};
  }

  /// Queues one session's commands. The logical and pattern commands run
  /// first on both twins from their first page, so their landing offsets
  /// are comparable (the SYM-1 check).
  void PlanSession() {
    commands_.clear();
    next_ = 0;
    // Topics rotate, so every run spends the same share of sessions on
    // each report; the seed varies the texts and the goto targets.
    const int t = static_cast<int>(sessions_planned_++ % kTopics);
    const int goto_page = 2 + static_cast<int>(script_rng_.Uniform(6));
    const ObjectId visual_id = static_cast<ObjectId>(1 + t);
    const ObjectId audio_id = kAudioBase + 1 + t;
    landings_.clear();

    using text::LogicalUnit;
    const std::vector<Symmetric> landing = {
        Both("next chapter",
             [](auto& b) { return b.NextUnit(LogicalUnit::kChapter); }),
        Both("next paragraph",
             [](auto& b) { return b.NextUnit(LogicalUnit::kParagraph); }),
        Both("previous chapter",
             [](auto& b) { return b.PreviousUnit(LogicalUnit::kChapter); }),
        {"find pattern",
         [](core::VisualBrowser& b) { return b.FindPattern(kPattern); },
         [](core::AudioBrowser& b) { return b.FindSpokenPattern(kPattern); }},
    };
    const std::vector<Symmetric> paging = {
        Both("next page", [](auto& b) { return b.NextPage(); }),
        Both("next page", [](auto& b) { return b.NextPage(); }),
        Both("previous page", [](auto& b) { return b.PreviousPage(); }),
        Both("goto page",
             [goto_page](auto& b) { return b.GotoPage(goto_page); }),
    };

    // The topic word matches exactly the report and its twin, so the walk
    // puts both under the cursor (and their skeletons in the prefetch
    // queue) whatever order their scores give; each topic's query recurs
    // every third session, so the ranked cache hits.
    Add("query", "ws", [this, t] {
      auto browser = ws_->QueryRanked({Topic(t)}, 8);
      if (!browser.ok()) return browser.status();
      strip_.emplace(std::move(browser).value());
      return strip_->size() == 2 ? Status::OK()
                                 : Status::Internal("strip is not the twins");
    });
    Add("strip next", "ws", [this] { return strip_->Next(); });
    Add("strip previous", "ws", [this] { return strip_->Previous(); });
    Add("present visual", "ws",
        [this, visual_id] { return ws_->Present(visual_id); });
    for (const Symmetric& c : landing) {
      Add(c.name, "core", [this, op = c.visual] { return On(Visual(), op); },
          [this] {
            landings_.push_back(Visual()->current_text_offset());
            return std::string();
          });
    }
    for (const Symmetric& c : paging) {
      Add(c.name, "core", [this, op = c.visual] { return On(Visual(), op); });
    }

    Add("present audio", "ws", [this, audio_id, t] {
      Status s = ws_->Present(audio_id);
      if (s.ok() && Audio() != nullptr) {
        Audio()->SetRecognitionIndex(indexes_[static_cast<size_t>(t)]);
      }
      return s;
    });
    // The audio landing must sit within the SYM-1 bound (two text pages'
    // worth of characters) of the visual landing of the same command.
    const size_t slack =
        2 * docs_[static_cast<size_t>(t)].size() /
        std::max<size_t>(1, page_counts_[static_cast<size_t>(t)]);
    for (size_t i = 0; i < landing.size(); ++i) {
      Add("audio " + landing[i].name, "core",
          [this, op = landing[i].audio] { return On(Audio(), op); },
          [this, i, slack] {
            auto offset = Audio()->object().voice_part().TextOffsetForSample(
                Audio()->position());
            if (!offset.ok()) return std::string("no text offset for sample");
            if (i >= landings_.size()) return std::string("no visual landing");
            const size_t visual = landings_[i];
            const size_t delta =
                *offset > visual ? *offset - visual : visual - *offset;
            if (delta <= slack) return std::string();
            return "audio landing " + std::to_string(*offset) +
                   " vs visual " + std::to_string(visual) + " exceeds " +
                   std::to_string(slack);
          });
    }
    for (const Symmetric& c : paging) {
      Add("audio " + c.name, "core",
          [this, op = c.audio] { return On(Audio(), op); });
    }
    Add("audio pause rewind", "core", [this] {
      return On(Audio(), [](auto& b) {
        return b.RewindPauses(1, minos::voice::PauseKind::kShort);
      });
    });

    Add("present map", "ws", [this] { return ws_->Present(kParent); });
    Add("enter relevant", "core",
        [this] { return ws_->presentation().EnterRelevantObject(0); });
    Add("relevant next page", "core",
        [this] { return On(Visual(), [](auto& b) { return b.NextPage(); }); });
    Add("return", "core",
        [this] { return ws_->presentation().ReturnFromRelevantObject(); });
    Add("play tour", "core", [this] {
      return ws_->presentation().PlayTour(0).status();
    });
    if (commands_.size() != kCommandsPerSession) std::abort();
  }

  uint64_t seed_;
  int workers_;
  std::unique_ptr<minos::SimClock> clock_;
  std::unique_ptr<ShardStack> stack_;
  std::unique_ptr<minos::runtime::TaskPool> pool_;
  minos::render::Screen screen_;
  std::unique_ptr<server::Workstation> ws_;
  std::vector<object::MultimediaObject> corpus_;
  std::vector<text::Document> docs_;  ///< Text of each topic's report.
  std::vector<size_t> page_counts_;
  std::vector<text::WordIndex> indexes_;
  Random script_rng_{0};
  uint64_t sessions_planned_ = 0;
  std::vector<Command> commands_;
  size_t next_ = 0;
  std::optional<server::MiniatureBrowser> strip_;
  std::vector<size_t> landings_;
  double peak_depth_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeBrowse(uint64_t seed, int workers) {
  return std::make_unique<Browse>(seed, workers);
}

}  // namespace perfbench
