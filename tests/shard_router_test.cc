// The sharded-archive router: deterministic placement, scatter/gather
// merge ordering, breaker-driven failover to replicas, heal-time
// rebalancing, whole-chain loss degrading the presentation, scatters
// that agree at every worker count (inline included), and the prefetch
// pipeline exercising the scheduler's background lane.

#include "minos/server/shard_router.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "minos/core/visual_browser.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/workstation.h"
#include "minos/storage/request_scheduler.h"
#include "minos/text/formatter.h"
#include "minos/text/markup.h"

namespace minos::server {
namespace {

using object::MultimediaObject;
using object::VisualPageSpec;
using storage::ObjectId;

// --- Placement ---------------------------------------------------------

TEST(ShardPlacementTest, HashPlacementIsDeterministicAndSpreads) {
  ShardPlacement hash = HashPlacement();
  std::set<size_t> used;
  for (ObjectId id = 1; id <= 64; ++id) {
    const size_t shard = hash(id, 4);
    EXPECT_EQ(shard, hash(id, 4)) << "id " << id;  // Pure function.
    EXPECT_LT(shard, 4u);
    used.insert(shard);
  }
  // 64 consecutive ids must land on every one of 4 shards.
  EXPECT_EQ(used.size(), 4u);
}

TEST(ShardPlacementTest, RangePlacementPartitionsByIdWithClamp) {
  ShardPlacement range = RangePlacement(6);
  EXPECT_EQ(range(0, 4), 0u);
  EXPECT_EQ(range(5, 4), 0u);
  EXPECT_EQ(range(6, 4), 1u);
  EXPECT_EQ(range(17, 4), 2u);
  EXPECT_EQ(range(23, 4), 3u);
  EXPECT_EQ(range(1000, 4), 3u);  // Overflow clamps to the last shard.
}

// --- A sharded stack ---------------------------------------------------

/// A one-page archived text object.
MultimediaObject TextObject(ObjectId id, const std::string& body) {
  MultimediaObject obj(id);
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\n" + body + "\n");
  EXPECT_TRUE(doc.ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  VisualPageSpec page;
  page.text_page = 1;
  obj.descriptor().pages.push_back(page);
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// One shard's full server stack: its own device, archiver, versions and
/// link, so per-shard faults and breakers stay independent.
struct ShardStack {
  explicit ShardStack(SimClock* clock)
      : device("shard", 65536, 512, storage::DeviceCostModel::Instant(),
               true, clock),
        cache(256),
        archiver(&device, &cache),
        link(Link::Ethernet(clock)),
        server(&archiver, &versions, clock, &link) {}

  storage::BlockDevice device;
  storage::BlockCache cache;
  storage::Archiver archiver;
  storage::VersionStore versions;
  Link link;
  ObjectServer server;
};

class ShardRouterTest : public ::testing::Test {
 protected:
  /// Builds `n` shard stacks and a router over them (replication 2,
  /// range placement of `ids_per_shard` for predictable primaries).
  void BuildShards(size_t n, uint64_t ids_per_shard) {
    for (size_t i = 0; i < n; ++i) {
      stacks_.push_back(std::make_unique<ShardStack>(&clock_));
    }
    std::vector<ObjectServer*> servers;
    for (auto& stack : stacks_) servers.push_back(&stack->server);
    router_.emplace(servers, &clock_, RangePlacement(ids_per_shard),
                    ShardRouterOptions{});
  }

  /// Trips shard `i`'s breaker open by recording failures directly.
  void TripBreaker(size_t i, int threshold = 3) {
    CircuitBreaker::Options options;
    options.failure_threshold = threshold;
    stacks_[i]->link.ConfigureBreaker(options);
    for (int f = 0; f < threshold; ++f) {
      stacks_[i]->link.breaker().RecordFailure();
    }
    ASSERT_EQ(stacks_[i]->link.breaker().state(),
              CircuitBreaker::State::kOpen);
  }

  static int64_t Count(const std::string& name) {
    return static_cast<int64_t>(
        obs::MetricsRegistry::Default().counter(name)->value());
  }

  SimClock clock_;
  std::vector<std::unique_ptr<ShardStack>> stacks_;
  std::optional<ShardRouter> router_;
};

TEST_F(ShardRouterTest, StoreReplicatesOntoTheNextShardInRingOrder) {
  BuildShards(3, 10);
  ASSERT_TRUE(router_->Store(TextObject(12, "replicated body")).ok());
  // Primary of 12 under RangePlacement(10) is shard 1; replica on 2.
  EXPECT_EQ(router_->PrimaryOf(12), 1u);
  EXPECT_EQ(stacks_[0]->server.object_count(), 0u);
  EXPECT_EQ(stacks_[1]->server.object_count(), 1u);
  EXPECT_EQ(stacks_[2]->server.object_count(), 1u);
}

TEST_F(ShardRouterTest, ScatterGatherMergesAscendingAndDedupsReplicas) {
  BuildShards(3, 10);
  // Interleave ids across shards; every object matches "common".
  for (ObjectId id : {25u, 3u, 14u, 21u, 8u, 17u}) {
    ASSERT_TRUE(
        router_->Store(TextObject(id, "common body " + std::to_string(id)))
            .ok());
  }
  const std::vector<ObjectId> ids = router_->QueryAll({"common"});
  // Replication 2 indexes each object on two shards; the gather must
  // still report each id once, in ascending order.
  EXPECT_EQ(ids, (std::vector<ObjectId>{3, 8, 14, 17, 21, 25}));

  const std::vector<MiniatureCard> cards = router_->GatherCards(ids);
  ASSERT_EQ(cards.size(), 6u);
  for (size_t i = 1; i < cards.size(); ++i) {
    EXPECT_LT(cards[i - 1].id, cards[i].id);
  }
}

TEST_F(ShardRouterTest, GatherAdvancesByTheSlowestShardNotTheSum) {
  BuildShards(2, 10);
  for (ObjectId id : {1u, 2u, 11u, 12u}) {
    ASSERT_TRUE(
        router_->Store(TextObject(id, "parallel body")).ok());
  }
  // Replication 2 over 2 shards puts every object on both, so one
  // shard's serial gather builds all four cards — the no-overlap cost.
  const std::vector<ObjectId> ids = router_->QueryAll({"parallel"});
  const Micros start = clock_.Now();
  ASSERT_EQ(stacks_[0]->server.GatherCards(ids).size(), 4u);
  const Micros serial_cost = clock_.Now() - start;
  clock_.RewindTo(start);
  // The scattered gather splits the ids by primary (two cards per
  // shard) and overlaps the shards: the clock advances by the slowest
  // shard — about half the serial cost, strictly less than all of it.
  ASSERT_EQ(router_->GatherCards(ids).size(), 4u);
  const Micros gathered_cost = clock_.Now() - start;
  EXPECT_GT(gathered_cost, 0);
  EXPECT_LT(gathered_cost, serial_cost);
}

TEST_F(ShardRouterTest, OpenBreakerFailsReadsOverToTheReplica) {
  BuildShards(2, 10);
  ASSERT_TRUE(router_->Store(TextObject(5, "failover body")).ok());
  ASSERT_EQ(router_->PrimaryOf(5), 0u);

  const int64_t failovers_before = Count("router.failovers_total");
  TripBreaker(0);
  EXPECT_FALSE(router_->IsLive(0));
  EXPECT_TRUE(router_->IsLive(1));
  EXPECT_EQ(router_->live_count(), 1u);

  // The read routes to the replica on shard 1 and succeeds.
  auto fetched = router_->Fetch(5);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NE(fetched->text_part().contents().find("failover"),
            std::string::npos);
  EXPECT_GT(Count("router.failovers_total"), failovers_before);
  EXPECT_EQ(router_->RouteLink(5), &stacks_[1]->link);
}

TEST_F(ShardRouterTest, InjectedLinkFaultsTripTheBreakerAndFailOver) {
  BuildShards(2, 10);
  ASSERT_TRUE(router_->Store(TextObject(5, "injected body")).ok());
  // Every transfer on shard 0 drops; a low threshold opens its breaker
  // during the first fetch attempt's retries.
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultInjector injector(profile, 7, &clock_);
  stacks_[0]->link.SetFaultInjector(&injector);
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  stacks_[0]->link.ConfigureBreaker(options);

  auto fetched = router_->Fetch(5);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(stacks_[0]->link.breaker().state(),
            CircuitBreaker::State::kOpen);
  EXPECT_GT(injector.faults_injected(), 0u);
  // Subsequent reads route straight to the replica without touching the
  // dead link.
  const uint64_t faults_before = injector.faults_injected();
  ASSERT_TRUE(router_->Fetch(5).ok());
  EXPECT_EQ(injector.faults_injected(), faults_before);
}

TEST_F(ShardRouterTest, CooledDownShardGetsProbedAndHeals) {
  BuildShards(2, 10);
  ASSERT_TRUE(router_->Store(TextObject(5, "healing body")).ok());
  TripBreaker(0);
  ASSERT_FALSE(router_->IsLive(0));
  const int64_t healed_before = Count("router.shards_healed_total");

  // Past the cooldown the routing table readmits the shard for its
  // half-open probe...
  clock_.Advance(stacks_[0]->link.breaker().options().cooldown_us);
  EXPECT_TRUE(router_->IsLive(0));
  EXPECT_GT(Count("router.shards_healed_total"), healed_before);
  // ...and the probe read (no injector: the link works) closes the
  // breaker, rebalancing routing back onto the primary.
  ASSERT_TRUE(router_->Fetch(5).ok());
  EXPECT_EQ(stacks_[0]->link.breaker().state(),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(router_->RouteLink(5), &stacks_[0]->link);
}

TEST_F(ShardRouterTest, WholeChainLossDegradesInsteadOfCrashing) {
  BuildShards(2, 10);
  ASSERT_TRUE(
      router_->Store(TextObject(5, "unreachable degradation body")).ok());

  render::Screen screen;
  Workstation workstation(&*router_, &screen, &clock_);
  // Query while healthy: the miniature thumbs land in the session cache.
  auto browser = workstation.Query({"unreachable"});
  ASSERT_TRUE(browser.ok());
  ASSERT_EQ(browser->size(), 1u);

  TripBreaker(0);
  TripBreaker(1);
  EXPECT_EQ(router_->live_count(), 0u);
  EXPECT_EQ(router_->RouteLink(5), nullptr);
  EXPECT_TRUE(router_->Fetch(5).status().IsUnavailable());

  // The view retrieval degrades to the cached miniature thumb and the
  // substitution is recorded — no crash, no empty screen.
  auto region = workstation.FetchImageRegion(5, 0, image::Rect{0, 0, 8, 8});
  ASSERT_TRUE(region.ok());
  ASSERT_FALSE(workstation.presentation().degraded_parts().empty());

  // Queries served by zero shards return empty, not an error.
  EXPECT_TRUE(router_->QueryAll({"unreachable"}).empty());
  EXPECT_TRUE(router_->GatherCards({5}).empty());
}

// --- Worker counts -----------------------------------------------------

/// Everything a scatter run lets a caller observe.
struct ScatterRun {
  Micros elapsed = 0;
  std::vector<std::pair<ObjectId, double>> ranked;
  std::vector<ObjectId> all;
  std::vector<ObjectId> cards;
  std::vector<std::pair<std::string, int64_t>> counters;
  std::string trace;
};

/// Drives ranked, boolean and card scatters over three shards on a pool
/// of `workers` threads, under one traced root. Shard 1's link drops
/// every transfer, so its card share fails mid-scatter and the router
/// fails those ids over to their replicas.
ScatterRun RunScatter(int workers) {
  SimClock clock;
  obs::Tracer tracer(&clock);
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultInjector injector(profile, 7, &clock);
  std::vector<std::unique_ptr<ShardStack>> stacks;
  std::vector<ObjectServer*> servers;
  for (int i = 0; i < 3; ++i) {
    stacks.push_back(std::make_unique<ShardStack>(&clock));
    servers.push_back(&stacks.back()->server);
  }
  obs::MetricsRegistry registry;
  ShardRouterOptions options;
  options.replication = 2;
  options.registry = &registry;
  ShardRouter router(servers, &clock, RangePlacement(10), options);
  for (ObjectId id = 1; id <= 15; ++id) {
    const std::string parity = id % 2 == 0 ? "even" : "odd";
    const std::string body =
        "scatter " + parity + " body " + std::to_string(id);
    EXPECT_TRUE(router.Store(TextObject(id, body)).ok());
  }
  stacks[1]->link.SetFaultInjector(&injector);
  router.SetTracer(&tracer);
  runtime::TaskPool pool(&clock, workers);
  router.SetTaskPool(&pool);

  ScatterRun run;
  const Micros start = clock.Now();
  obs::TraceSpan root = tracer.StartSpan("scatter.root", obs::TraceContext{});
  const std::vector<std::vector<std::string>> word_sets = {
      {"scatter"}, {"even", "body"}, {"odd"}};
  for (const std::vector<std::string>& words : word_sets) {
    const std::vector<query::ScoredHit> hits = router.QueryRanked(
        words, 6, query::QueryMode::kDisjunctive, root.context());
    for (const query::ScoredHit& hit : hits) {
      run.ranked.emplace_back(hit.id, hit.score);
    }
    const std::vector<ObjectId> all = router.QueryAll(words);
    run.all.insert(run.all.end(), all.begin(), all.end());
    for (const MiniatureCard& card : router.GatherCards(all, root.context())) {
      run.cards.push_back(card.id);
    }
  }
  root.End();
  run.elapsed = clock.Now() - start;
  run.counters = registry.Snapshot().counters;
  run.trace = tracer.ToJson();
  return run;
}

TEST(ShardRouterWorkersTest, ScatterIsIdenticalOnEveryWorkerCount) {
  const ScatterRun inline_run = RunScatter(0);
  // The fault path ran: shard 1's share failed and its ids failed over.
  obs::MetricsSnapshot counters;
  counters.counters = inline_run.counters;
  EXPECT_GT(counters.CounterValue("router.shard1.errors_total"), 0);
  EXPECT_GT(counters.CounterValue("router.failovers_total"), 0);
  EXPECT_FALSE(inline_run.ranked.empty());
  EXPECT_FALSE(inline_run.cards.empty());
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const ScatterRun run = RunScatter(workers);
    EXPECT_EQ(run.elapsed, inline_run.elapsed);
    EXPECT_EQ(run.ranked, inline_run.ranked);
    EXPECT_EQ(run.all, inline_run.all);
    EXPECT_EQ(run.cards, inline_run.cards);
    EXPECT_EQ(run.counters, inline_run.counters);
    EXPECT_EQ(run.trace, inline_run.trace);
  }
}

// --- Scheduler lanes ---------------------------------------------------

/// A paged text object (one visual page per formatted text page).
MultimediaObject PagedObject(ObjectId id, int paragraphs) {
  MultimediaObject obj(id);
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 12;
  std::string markup;
  for (int i = 0; i < paragraphs; ++i) {
    markup +=
        ".PP\nlane scheduling paragraph long enough to spill across "
        "several formatted pages of the presentation\n";
  }
  text::MarkupParser parser;
  auto doc = parser.Parse(markup);
  EXPECT_TRUE(doc.ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  text::TextFormatter formatter(obj.descriptor().layout);
  const size_t pages = formatter.Paginate(obj.text_part()).value().size();
  EXPECT_GE(pages, 2u);
  for (size_t i = 0; i < pages; ++i) {
    VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    obj.descriptor().pages.push_back(page);
  }
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

TEST(SchedulerLaneTest, PrefetchStagingRidesTheBackgroundLane) {
  SimClock clock;
  storage::BlockDevice device("disk", 65536, 512,
                              storage::DeviceCostModel::Instant(), true,
                              &clock);
  // Cache-less archiver: every staging read reaches the device, so the
  // scheduler sees the real miss traffic.
  storage::Archiver archiver(&device, nullptr);
  storage::VersionStore versions;
  Link link = Link::Ethernet(&clock);
  ObjectServer server(&archiver, &versions, &clock, &link);
  obs::MetricsRegistry lanes;
  storage::RequestScheduler scheduler(&device,
                                      storage::SchedulingPolicy::kScan,
                                      &lanes);
  server.SetScheduler(&scheduler);

  ASSERT_TRUE(server.Store(PagedObject(1, 10)).ok());
  render::Screen screen;
  Workstation workstation(&server, &screen, &clock);
  workstation.EnablePrefetch();
  ASSERT_TRUE(workstation.Present(1).ok());
  core::VisualBrowser* browser = workstation.presentation().visual_browser();
  ASSERT_NE(browser, nullptr);
  while (browser->NextPage().ok()) {
  }

  // The foreground page under the cursor staged in the foreground lane;
  // the speculative next/previous pages rode the background lane.
  const double total = lanes.counter("scheduler.scan.requests")->value();
  const double background =
      lanes.counter("scheduler.scan.background_requests")->value();
  EXPECT_GT(total, 0.0);
  EXPECT_GT(background, 0.0);
  EXPECT_LT(background, total);  // Both lanes saw traffic.
}

}  // namespace
}  // namespace minos::server
