// End-to-end observability test: drives a presentation session through
// the full pipeline (object server + link + block cache + scheduler +
// visual browsing), exports the default registry as a minos.metrics.v1
// snapshot, and checks that every metric family the trajectory format
// promises is present — the same families BENCH_*.json files and
// `minos_render --stats` carry.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "minos/core/visual_browser.h"
#include "minos/obs/export.h"
#include "minos/obs/metrics.h"
#include "minos/server/object_server.h"
#include "minos/storage/archiver.h"
#include "minos/storage/block_cache.h"
#include "minos/storage/request_scheduler.h"
#include "minos/text/formatter.h"
#include "minos/text/markup.h"
#include "minos/util/random.h"

namespace minos {
namespace {

object::MultimediaObject MakeVisualObject(storage::ObjectId id) {
  text::MarkupParser parser;
  auto doc = parser.Parse(R"(.TITLE Observability Session
.PP
The presentation manager requests the appropriate pieces of information
from the multimedia object server subsystems and presents them.
.CHAPTER Browsing
.PP
The user turns pages, enters relevant objects, and returns; every step
leaves a latency sample behind in the registry.
.PP
A final snapshot captures the whole session in one document.
)");
  object::MultimediaObject obj(id);
  obj.descriptor().layout.width = 40;
  obj.descriptor().layout.height = 8;
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  text::TextFormatter formatter(obj.descriptor().layout);
  const size_t pages = formatter.Paginate(obj.text_part()).value().size();
  for (size_t i = 0; i < pages; ++i) {
    object::VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    obj.descriptor().pages.push_back(page);
  }
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// Runs the pipeline against the default registry and returns the final
/// SimClock reading.
Micros DriveSession() {
  SimClock clock;
  storage::BlockDevice device("optical", 4096, 1024,
                              storage::DeviceCostModel::OpticalDisk(),
                              false, &clock);
  storage::BlockCache cache(1024);
  storage::Archiver archiver(&device, &cache);
  storage::VersionStore versions;
  server::Link link = server::Link::Ethernet(&clock);
  server::ObjectServer server(&archiver, &versions, &clock, &link);

  object::MultimediaObject obj = MakeVisualObject(1);
  EXPECT_TRUE(server.Store(obj).ok());
  cache.Clear();
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(server.Fetch(1).ok());
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_GT(link.bytes_transferred(), 0u);

  render::Screen screen;
  core::MessagePlayer messages(&clock, voice::SpeakerParams{});
  core::EventLog log;
  auto browser =
      core::VisualBrowser::Open(&obj, &screen, &messages, &clock, &log);
  EXPECT_TRUE(browser.ok());
  while ((*browser)->AdvancePages(1).ok()) {
  }

  storage::RequestScheduler scheduler(&device,
                                      storage::SchedulingPolicy::kFcfs);
  Random rng(9);
  std::vector<storage::IoRequest> reqs;
  for (uint64_t id = 0; id < 32; ++id) {
    storage::IoRequest req;
    req.id = id;
    req.block = rng.Uniform(4096 - 4);
    req.count = 2;
    req.arrival_time = static_cast<Micros>(rng.Uniform(100000));
    reqs.push_back(req);
  }
  scheduler.Run(reqs);
  return clock.Now();
}

TEST(StatsSnapshotTest, ExportedSnapshotCarriesEveryPipelineFamily) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.Reset();  // Deterministic instance scopes: block_cache0, link0, ...
  const Micros sim_time = DriveSession();
  const obs::MetricsSnapshot snap = reg.Snapshot();

  obs::SnapshotMeta meta{"stats_snapshot_test", sim_time};
  const std::string json = obs::SnapshotToJson(snap, meta);
  const std::string header =
      R"({"schema":"minos.metrics.v1","bench":"stats_snapshot_test",)"
      R"("sim_time_us":)" +
      std::to_string(sim_time) + ",";
  EXPECT_EQ(json.substr(0, header.size()), header);

  // Block cache and link families (counters).
  for (const char* name :
       {"block_cache0.hits", "block_cache0.misses",
        "block_cache0.evictions", "link0.bytes_total", "link0.transfers",
        "server.fetches"}) {
    EXPECT_TRUE(snap.HasCounter(name)) << "missing counter " << name;
  }
  EXPECT_GT(snap.CounterValue("block_cache0.hits"), 0);
  EXPECT_GT(snap.CounterValue("block_cache0.misses"), 0);
  EXPECT_GT(snap.CounterValue("link0.bytes_total"), 0);
  EXPECT_GT(snap.CounterValue("link0.transfers"), 0);

  // Scheduler queueing-delay percentiles, page-turn latency and link
  // transfer time (histograms).
  for (const char* name :
       {"scheduler.fcfs.queueing_delay_us", "scheduler.fcfs.service_time_us",
        "browser.visual.page_turn_us", "link0.transfer_us"}) {
    EXPECT_NE(snap.FindHistogram(name), nullptr)
        << "missing histogram " << name;
  }
  const obs::HistogramSummary* queueing =
      snap.FindHistogram("scheduler.fcfs.queueing_delay_us");
  ASSERT_NE(queueing, nullptr);
  EXPECT_GT(queueing->count, 0);
  const obs::HistogramSummary* page_turn =
      snap.FindHistogram("browser.visual.page_turn_us");
  ASSERT_NE(page_turn, nullptr);
  EXPECT_GT(page_turn->count, 0);
}

TEST(StatsSnapshotTest, WriteSnapshotJsonRoundTripsThroughDisk) {
  obs::MetricsRegistry reg;
  reg.counter("demo.events")->Increment(3);
  reg.gauge("demo.depth")->Set(2.5);
  reg.histogram("demo.latency_us")->Record(12.0);

  const std::string path = testing::TempDir() + "/snapshot_test.json";
  obs::SnapshotMeta meta{"disk \"round\" trip", 77, 4};
  ASSERT_TRUE(obs::WriteSnapshotJson(reg, path, meta).ok());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // The whole file: header, the three sections and the full histogram
  // summary, one document and a newline.
  EXPECT_EQ(buffer.str(),
            R"({"schema":"minos.metrics.v1","bench":"disk \"round\" trip",)"
            R"("sim_time_us":77,"workers":4,"counters":{"demo.events":3},)"
            R"("gauges":{"demo.depth":2.5},"histograms":{"demo.latency_us":)"
            R"({"count":1,"sum":12,"min":12,"max":12,"mean":12,"p50":12,)"
            R"("p90":12,"p99":12}}})"
            "\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace minos
