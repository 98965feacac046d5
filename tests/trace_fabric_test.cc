// End-to-end request tracing across the shard fabric: one traced browse
// action against a sharded archive must come back as a single connected
// span tree — every parent link resolving inside the trace — even when
// fault storms force retries, scatter/gather rewinds overlap sibling
// work on one clock, and failovers reroute mid-request. Attribution
// tags (retry backoff, failover outcome, salvage degradation) and the
// per-shard RED metrics are asserted here too.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "minos/object/multimedia_object.h"
#include "minos/obs/trace.h"
#include "minos/server/object_server.h"
#include "minos/server/shard_router.h"
#include "minos/text/markup.h"

namespace minos::server {
namespace {

using object::MultimediaObject;
using storage::ObjectId;

/// One shard's full server stack with its own link, so per-shard faults
/// and breakers stay independent.
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

MultimediaObject TextObject(ObjectId id, const std::string& body) {
  MultimediaObject obj(id);
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\n" + body + "\n");
  EXPECT_TRUE(doc.ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  object::VisualPageSpec page;
  page.text_page = 1;
  obj.descriptor().pages.push_back(page);
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

class TraceFabricTest : public ::testing::Test {
 protected:
  void BuildShards(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      stacks_.push_back(std::make_unique<ShardStack>(&clock_));
    }
    std::vector<ObjectServer*> servers;
    for (auto& stack : stacks_) servers.push_back(&stack->server);
    router_.emplace(servers, &clock_);
  }

  /// Attaches a fresh injector with `profile` to shard `i`'s link.
  void Inject(size_t i, const FaultProfile& profile, uint64_t seed) {
    injectors_.push_back(
        std::make_unique<FaultInjector>(profile, seed, &clock_));
    stacks_[i]->link.SetFaultInjector(injectors_.back().get());
  }

  static int64_t Count(const std::string& name) {
    return obs::MetricsRegistry::Default().counter(name)->value();
  }

  /// Asserts the tracer holds exactly one trace whose every parent link
  /// resolves: one root, no orphans, all spans under `trace_id`.
  void ExpectOneConnectedTree(const obs::Tracer& tracer,
                              uint64_t trace_id) {
    const std::vector<obs::SpanRecord> spans = tracer.OrderedSpans();
    ASSERT_FALSE(spans.empty());
    std::set<uint64_t> ids;
    size_t roots = 0;
    for (const obs::SpanRecord& s : spans) {
      EXPECT_EQ(s.trace_id, trace_id) << s.name;
      ids.insert(s.span_id);
      if (s.parent_span_id == 0) ++roots;
    }
    EXPECT_EQ(roots, 1u);
    for (const obs::SpanRecord& s : spans) {
      if (s.parent_span_id == 0) continue;
      EXPECT_TRUE(ids.count(s.parent_span_id))
          << "orphan span '" << s.name << "' (parent "
          << s.parent_span_id << ")";
    }
  }

  SimClock clock_;
  std::vector<std::unique_ptr<ShardStack>> stacks_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::optional<ShardRouter> router_;
};

TEST_F(TraceFabricTest, RankedQueryUnderStormIsOneConnectedTree) {
  BuildShards(4);
  for (ObjectId id = 1; id <= 12; ++id) {
    ASSERT_TRUE(
        router_->Store(TextObject(id, "storm report body " +
                                          std::to_string(id)))
            .ok());
  }
  for (size_t i = 0; i < 4; ++i) {
    Inject(i, FaultProfile::Storm(), 0x5707 + i);
  }
  obs::Tracer tracer(&clock_);
  router_->SetTracer(&tracer);

  obs::TraceSpan root = tracer.StartSpan("browse");
  std::vector<ObjectId> ids;
  for (const query::ScoredHit& hit :
       router_->QueryRanked({"report"}, 8, query::QueryMode::kConjunctive,
                            root.context())) {
    ids.push_back(hit.id);
  }
  (void)router_->GatherCards(ids, root.context());
  root.End();
  router_->SetTracer(nullptr);

  ExpectOneConnectedTree(tracer, root.context().trace_id);

  // The storm forced retries somewhere in the fabric, and every backoff
  // window is attributed: a "retry.backoff" span tagged with the
  // attempt it follows and the delay spent.
  bool saw_backoff = false;
  for (const obs::SpanRecord& s : tracer.OrderedSpans()) {
    if (s.name != "retry.backoff") continue;
    saw_backoff = true;
    EXPECT_NE(s.FindTag("attempt"), nullptr);
    EXPECT_NE(s.FindTag("backoff_us"), nullptr);
  }
  EXPECT_TRUE(saw_backoff);

  // Every shard that served a share fed its RED metrics.
  bool any_requests = false;
  for (size_t i = 0; i < 4; ++i) {
    const std::string scope = "router.shard" + std::to_string(i);
    if (Count(scope + ".requests_total") > 0) any_requests = true;
  }
  EXPECT_TRUE(any_requests);
}

TEST_F(TraceFabricTest, DeadPrimaryFailoverTagsAttemptsAndRed) {
  BuildShards(3);
  ASSERT_TRUE(router_->Store(TextObject(1, "failover body")).ok());
  const size_t primary = router_->PrimaryOf(1);
  const int64_t primary_errors_before =
      Count("router.shard" + std::to_string(primary) + ".errors_total");

  // The primary's link drops everything but its breaker stays closed,
  // so the router attempts it (and fails over) rather than skipping it.
  FaultProfile dead;
  dead.drop_rate = 1.0;
  Inject(primary, dead, 0xDEAD);

  obs::Tracer tracer(&clock_);
  router_->SetTracer(&tracer);
  obs::TraceSpan root = tracer.StartSpan("fetch");
  auto got = router_->Fetch(1, FetchGranularity::kWhole, root.context());
  root.End();
  router_->SetTracer(nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  ExpectOneConnectedTree(tracer, root.context().trace_id);
  // Two routing attempts: the dead primary tagged failover, then the
  // replica tagged ok — plus the backoff the primary's retries burned.
  std::vector<std::string> outcomes;
  bool saw_backoff = false;
  for (const obs::SpanRecord& s : tracer.OrderedSpans()) {
    if (s.name == "router.attempt") {
      const std::string* outcome = s.FindTag("outcome");
      ASSERT_NE(outcome, nullptr);
      ASSERT_NE(s.FindTag("shard"), nullptr);
      outcomes.push_back(*outcome);
    }
    if (s.name == "retry.backoff") saw_backoff = true;
  }
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], "failover");
  EXPECT_EQ(outcomes[1], "ok");
  EXPECT_TRUE(saw_backoff);
  EXPECT_GT(
      Count("router.shard" + std::to_string(primary) + ".errors_total"),
      primary_errors_before);
}

TEST_F(TraceFabricTest, ScatterShardSpansRecordTrueOverlap) {
  BuildShards(3);
  for (ObjectId id = 1; id <= 9; ++id) {
    ASSERT_TRUE(
        router_->Store(TextObject(id, "overlap report body")).ok());
  }
  obs::Tracer tracer(&clock_);
  router_->SetTracer(&tracer);
  obs::TraceSpan root = tracer.StartSpan("query");
  (void)router_->GatherCards(router_->QueryAll({"report"}), root.context());
  root.End();
  router_->SetTracer(nullptr);

  // Each shard's share runs against a rewound clock, so the per-shard
  // spans all start at the scatter point: the trace records the modeled
  // overlap instead of serializing siblings the way the ambient open
  // stack would.
  std::vector<const obs::SpanRecord*> shares;
  const std::vector<obs::SpanRecord> spans = tracer.OrderedSpans();
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "shard.cards") shares.push_back(&s);
  }
  ASSERT_GE(shares.size(), 2u);
  for (const obs::SpanRecord* s : shares) {
    EXPECT_EQ(s->start_us, shares.front()->start_us);
    EXPECT_GE(s->duration_us(), 0);
  }
}

TEST_F(TraceFabricTest, UntracedCallsRecordNoSpans) {
  BuildShards(2);
  ASSERT_TRUE(router_->Store(TextObject(1, "silent report body")).ok());
  obs::Tracer tracer(&clock_);
  router_->SetTracer(&tracer);
  // No propagated context: the fabric must record nothing — untraced
  // paths can never produce orphan roots.
  ASSERT_EQ(router_->GatherCards(router_->QueryAll({"report"})).size(), 1u);
  ASSERT_TRUE(router_->Fetch(1).ok());
  router_->SetTracer(nullptr);
  EXPECT_TRUE(tracer.OrderedSpans().empty());
}

TEST(TraceSalvageTest, PersistentCorruptionTagsFetchDegraded) {
  // Wire corruption on every delivery: retries cannot cure it, so the
  // fetch falls through to the lenient salvage decode and the trace
  // marks the request degraded=salvage. A single attempt (no retries)
  // pins the injector's byte-flip sequence: the seed's first flip lands
  // under a part checksum, so the strict decode rejects it and the
  // salvage read happens deterministically.
  SimClock clock;
  ShardStack stack(&clock);
  FaultProfile corrupting;
  corrupting.corrupt_rate = 1.0;
  FaultInjector injector(corrupting, 0xC0DE, &clock);
  stack.server.SetFaultInjector(&injector);
  stack.server.SetRetryPolicy(RetryPolicy::None());
  MultimediaObject obj(7);
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\nsalvageable body text goes here\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  image::Bitmap bm(24, 16);
  bm.FillRect(image::Rect{2, 2, 8, 8}, 99);
  ASSERT_TRUE(obj.AddImage(image::Image::FromBitmap(std::move(bm))).ok());
  object::VisualPageSpec page;
  page.text_page = 1;
  obj.descriptor().pages.push_back(page);
  object::VoiceLogicalMessage note;
  note.transcript = "salvage note";
  note.text_anchor = object::TextAnchor{1, 4};
  obj.descriptor().voice_messages.push_back(note);
  ASSERT_TRUE(obj.Archive().ok());
  ASSERT_TRUE(stack.server.Store(obj).ok());

  obs::Tracer tracer(&clock);
  stack.server.SetTracer(&tracer);
  obs::TraceSpan root = tracer.StartSpan("req");
  auto got = stack.server.Fetch(7, FetchGranularity::kWhole,
                                root.context());
  root.End();
  stack.server.SetTracer(nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  bool saw_salvage = false;
  for (const obs::SpanRecord& s : tracer.OrderedSpans()) {
    if (s.name != "server.fetch") continue;
    const std::string* degraded = s.FindTag("degraded");
    if (degraded != nullptr && *degraded == "salvage") saw_salvage = true;
  }
  EXPECT_TRUE(saw_salvage);
  EXPECT_GT(obs::MetricsRegistry::Default()
                .counter("server.fetch_salvages")
                ->value(),
            0);
}

}  // namespace
}  // namespace minos::server
