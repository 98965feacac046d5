// The self-healing storage tier: catalog digests (wire format and
// strict rejection), replica ingest, heal-triggered anti-entropy
// syncs, degrade-then-repair convergence, fail-closed shard expansion,
// and determinism of the whole repair schedule.

#include "minos/server/repair.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "minos/server/shard_router.h"
#include "minos/text/markup.h"
#include "minos/util/coding.h"
#include "minos/util/random.h"
#include "minos/util/string_util.h"
#include "minos/voice/synthesizer.h"

namespace minos::server {
namespace {

using object::MultimediaObject;
using object::VisualPageSpec;
using storage::ObjectId;

int64_t Count(const std::string& name) {
  return obs::MetricsRegistry::Default().counter(name)->value();
}

double GaugeVal(const std::string& name) {
  return obs::MetricsRegistry::Default().gauge(name)->value();
}

/// One shard's full server stack: its own device, archiver, versions
/// and link, so per-shard faults and breakers stay independent.
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
  VisualPageSpec page;
  page.text_page = 1;
  obj.descriptor().pages.push_back(page);
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

/// A visual-mode object with both a text part and its spoken voice
/// part, so a salvage that drops the voice still leaves it presentable.
MultimediaObject TextAndVoiceObject(ObjectId id, const std::string& body) {
  MultimediaObject obj(id);
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\n" + body + "\n");
  EXPECT_TRUE(doc.ok());
  auto track = voice::SpeechSynthesizer(voice::SpeakerParams{})
                   .Synthesize(*doc);
  EXPECT_TRUE(track.ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  EXPECT_TRUE(
      obj.SetVoicePart(voice::VoiceDocument(std::move(track).value())).ok());
  VisualPageSpec page;
  page.text_page = 1;
  obj.descriptor().pages.push_back(page);
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

class RepairTest : public ::testing::Test {
 protected:
  /// Builds `n` shard stacks, a router over them (replication 2, range
  /// placement of `ids_per_shard`) and a RepairManager on the router.
  void BuildShards(size_t n, uint64_t ids_per_shard,
                   RepairOptions options = {}) {
    for (size_t i = 0; i < n; ++i) {
      stacks_.push_back(std::make_unique<ShardStack>(&clock_));
    }
    std::vector<ObjectServer*> servers;
    for (auto& stack : stacks_) servers.push_back(&stack->server);
    router_.emplace(servers, &clock_, RangePlacement(ids_per_shard),
                    ShardRouterOptions{});
    repair_.emplace(&*router_, &clock_, options);
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

  /// Sits out the breaker cooldown and crosses the heal edge (which
  /// fires the router's heal listener).
  void HealShard(size_t i) {
    clock_.Advance(stacks_[i]->link.breaker().options().cooldown_us + 1);
    ASSERT_TRUE(router_->IsLive(i));
  }

  SimClock clock_;
  std::vector<std::unique_ptr<ShardStack>> stacks_;
  std::optional<ShardRouter> router_;
  std::optional<RepairManager> repair_;
};

// --- Digest wire format ------------------------------------------------

TEST(CatalogDigestTest, SerializeRoundTripsExactly) {
  CatalogDigest digest;
  digest.entries.push_back(DigestEntry{3, 1, 0xDEADBEEF});
  digest.entries.push_back(DigestEntry{17, 4, 0});
  digest.entries.push_back(DigestEntry{900, 2, 0xFFFFFFFF});
  const std::string wire = digest.Serialize();
  auto parsed = CatalogDigest::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, digest);

  const CatalogDigest empty;
  auto parsed_empty = CatalogDigest::Deserialize(empty.Serialize());
  ASSERT_TRUE(parsed_empty.ok());
  EXPECT_TRUE(parsed_empty->entries.empty());
}

TEST(CatalogDigestTest, EveryBitFlipIsRejected) {
  CatalogDigest digest;
  for (ObjectId id = 1; id <= 8; ++id) {
    digest.entries.push_back(DigestEntry{
        id, static_cast<uint32_t>(id), static_cast<uint32_t>(0x1000u + id)});
  }
  const std::string wire = digest.Serialize();
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = wire;
      damaged[pos] = static_cast<char>(damaged[pos] ^ (1 << bit));
      auto parsed = CatalogDigest::Deserialize(damaged);
      EXPECT_FALSE(parsed.ok())
          << "flip survived at byte " << pos << " bit " << bit;
      EXPECT_TRUE(parsed.status().IsCorruption());
    }
  }
}

TEST(CatalogDigestTest, EveryTruncationIsRejected) {
  CatalogDigest digest;
  for (ObjectId id = 1; id <= 8; ++id) {
    digest.entries.push_back(
        DigestEntry{id * 7, 2, static_cast<uint32_t>(0xAB00u + id)});
  }
  const std::string wire = digest.Serialize();
  for (size_t keep = 0; keep < wire.size(); ++keep) {
    auto parsed = CatalogDigest::Deserialize(wire.substr(0, keep));
    EXPECT_FALSE(parsed.ok()) << "truncation to " << keep << " survived";
  }
  // Trailing garbage moves the checksum trailer: also rejected.
  EXPECT_FALSE(CatalogDigest::Deserialize(wire + "x").ok());
}

TEST(CatalogDigestTest, RejectsOutOfOrderIdsAndZeroVersions) {
  CatalogDigest unordered;
  unordered.entries.push_back(DigestEntry{9, 1, 1});
  unordered.entries.push_back(DigestEntry{3, 1, 2});
  auto parsed = CatalogDigest::Deserialize(unordered.Serialize());
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());

  CatalogDigest duplicate;
  duplicate.entries.push_back(DigestEntry{5, 1, 1});
  duplicate.entries.push_back(DigestEntry{5, 2, 2});
  EXPECT_FALSE(CatalogDigest::Deserialize(duplicate.Serialize()).ok());

  CatalogDigest zero_version;
  zero_version.entries.push_back(DigestEntry{5, 0, 1});
  EXPECT_FALSE(CatalogDigest::Deserialize(zero_version.Serialize()).ok());
}

// --- Server-side digest + replica ingest -------------------------------

TEST(ObjectServerAntiEntropyTest, DigestListsCatalogAscendingWithCrcs) {
  SimClock clock;
  ShardStack stack(&clock);
  for (ObjectId id : {23u, 5u, 14u}) {
    ASSERT_TRUE(
        stack.server.Store(TextObject(id, "digest body")).ok());
  }
  const CatalogDigest digest = stack.server.BuildCatalogDigest();
  ASSERT_EQ(digest.entries.size(), 3u);
  EXPECT_EQ(digest.entries[0].id, 5u);
  EXPECT_EQ(digest.entries[1].id, 14u);
  EXPECT_EQ(digest.entries[2].id, 23u);
  for (const DigestEntry& e : digest.entries) {
    EXPECT_EQ(e.version, 1u);
    auto bytes = stack.server.ReadObjectBytes(e.id);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(e.content_crc, Crc32(*bytes));
  }
  // A scrub over intact media agrees with the cached checksums.
  EXPECT_EQ(stack.server.BuildCatalogDigest(/*scrub=*/true), digest);
}

TEST(ObjectServerAntiEntropyTest, AcceptReplicaIngestsServesAndSkips) {
  SimClock clock;
  ShardStack source(&clock);
  ShardStack target(&clock);
  ASSERT_TRUE(source.server.Store(TextObject(7, "replica body")).ok());
  auto bytes = source.server.ReadObjectBytes(7);
  ASSERT_TRUE(bytes.ok());

  auto first = target.server.AcceptReplica(7, 1, *bytes);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  EXPECT_EQ(target.server.object_count(), 1u);
  // The replica serves fetches and queries like a native store.
  auto fetched = target.server.Fetch(7);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NE(fetched->text_part().contents().find("replica"),
            std::string::npos);
  EXPECT_EQ(target.server.QueryAll({"replica"}),
            std::vector<ObjectId>{7});
  // Same version, same bytes: a verified no-op.
  auto again = target.server.AcceptReplica(7, 1, *bytes);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(ObjectServerAntiEntropyTest, AcceptReplicaRejectsDamageUnchanged) {
  SimClock clock;
  ShardStack source(&clock);
  ShardStack target(&clock);
  ASSERT_TRUE(source.server.Store(TextObject(7, "damaged body")).ok());
  auto bytes = source.server.ReadObjectBytes(7);
  ASSERT_TRUE(bytes.ok());

  std::string damaged = *bytes;
  damaged[damaged.size() / 2] =
      static_cast<char>(damaged[damaged.size() / 2] ^ 0x40);
  auto accepted = target.server.AcceptReplica(7, 1, damaged);
  EXPECT_FALSE(accepted.ok());
  EXPECT_EQ(target.server.object_count(), 0u);
  // Truncation is equally fatal, equally non-destructive.
  EXPECT_FALSE(
      target.server.AcceptReplica(7, 1, bytes->substr(0, 10)).ok());
  EXPECT_EQ(target.server.object_count(), 0u);
  // Version 0 is not a version.
  EXPECT_FALSE(target.server.AcceptReplica(7, 0, *bytes).ok());
}

TEST(ObjectServerAntiEntropyTest, AcceptReplicaNeverRegressesVersions) {
  SimClock clock;
  ShardStack source(&clock);
  ShardStack target(&clock);
  ASSERT_TRUE(source.server.Store(TextObject(7, "first draft")).ok());
  auto v1 = source.server.ReadObjectBytes(7);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(source.server.Store(TextObject(7, "second draft")).ok());
  auto v2 = source.server.ReadObjectBytes(7);
  ASSERT_TRUE(v2.ok());

  auto newer = target.server.AcceptReplica(7, 2, *v2);
  ASSERT_TRUE(newer.ok());
  EXPECT_TRUE(*newer);
  // A stale replica arriving late is ignored, not installed.
  auto stale = target.server.AcceptReplica(7, 1, *v1);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(*stale);
  auto fetched = target.server.Fetch(7);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NE(fetched->text_part().contents().find("second"),
            std::string::npos);
}

// --- Degrade → surface → heal → repair ---------------------------------

TEST_F(RepairTest, StoreOntoDarkReplicaSurfacesUnderReplication) {
  BuildShards(2, 10);
  std::vector<std::pair<ObjectId, int>> degraded_events;
  router_->SetDegradedStoreListener([&](ObjectId id, int live_copies) {
    degraded_events.push_back({id, live_copies});
  });
  const int64_t degraded_before = Count("router.degraded_stores_total");

  TripBreaker(1);
  // Primary of 15 is the dark shard 1; only the replica on 0 lands.
  ASSERT_TRUE(router_->Store(TextObject(15, "degraded body")).ok());
  EXPECT_EQ(stacks_[0]->server.object_count(), 1u);
  EXPECT_EQ(stacks_[1]->server.object_count(), 0u);

  EXPECT_EQ(router_->under_replicated(), std::set<ObjectId>{15});
  EXPECT_EQ(GaugeVal("router.under_replicated"), 1.0);
  EXPECT_EQ(Count("router.degraded_stores_total"), degraded_before + 1);
  ASSERT_EQ(degraded_events.size(), 1u);
  EXPECT_EQ(degraded_events[0], (std::pair<ObjectId, int>{15, 1}));
  // Redundancy debt alone keeps a sync pending — no heal needed.
  EXPECT_TRUE(repair_->sync_pending());
}

TEST_F(RepairTest, SyncAgainstDarkShardReportsDebtWithoutPendingWork) {
  BuildShards(2, 10);
  TripBreaker(1);
  ASSERT_TRUE(router_->Store(TextObject(15, "waiting body")).ok());

  const RepairReport report = repair_->Sync();
  EXPECT_EQ(report.digests_exchanged, 1u);  // Only shard 0 answered.
  EXPECT_EQ(report.replicas_repaired, 0u);
  EXPECT_EQ(report.under_replicated, 1u);  // The dark deficit remains...
  EXPECT_EQ(report.pending, 0u);  // ...but no live work was left undone.
  EXPECT_EQ(GaugeVal("router.under_replicated"), 1.0);
  EXPECT_EQ(GaugeVal("repair.pending"), 0.0);
  EXPECT_TRUE(repair_->sync_pending());  // The debt keeps it pending.
}

TEST_F(RepairTest, HealTriggersPendingSyncThatRestoresRedundancy) {
  BuildShards(2, 10);
  TripBreaker(1);
  ASSERT_TRUE(router_->Store(TextObject(15, "healed body")).ok());
  ASSERT_TRUE(router_->Store(TextObject(3, "intact body")).ok());

  const int64_t syncs_before = Count("repair.syncs_total");
  const int64_t repaired_before = Count("repair.replicas_repaired_total");
  HealShard(1);
  ASSERT_TRUE(repair_->sync_pending());

  std::optional<RepairReport> report = repair_->SyncIfPending();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->digests_exchanged, 2u);
  // Shard 1 was dark for both stores, so both objects were singly held
  // and both needed a copy shipped.
  EXPECT_EQ(report->replicas_repaired, 2u);
  EXPECT_EQ(report->objects_checked, 2u);
  EXPECT_EQ(report->repair_failures, 0u);
  EXPECT_EQ(report->under_replicated, 0u);
  EXPECT_EQ(report->pending, 0u);
  EXPECT_GT(report->bytes_shipped, 0u);

  // The archive converged: both shards hold both objects, the gauge is
  // clear, the healed shard serves the repaired copy directly.
  EXPECT_EQ(stacks_[1]->server.object_count(), 2u);
  EXPECT_TRUE(router_->under_replicated().empty());
  EXPECT_EQ(GaugeVal("router.under_replicated"), 0.0);
  EXPECT_FALSE(repair_->sync_pending());
  EXPECT_EQ(Count("repair.syncs_total"), syncs_before + 1);
  EXPECT_EQ(Count("repair.replicas_repaired_total"), repaired_before + 2);
  auto fetched = stacks_[1]->server.Fetch(15);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NE(fetched->text_part().contents().find("healed"),
            std::string::npos);
  // Nothing further to do: an idle round ships no objects.
  EXPECT_FALSE(repair_->SyncIfPending().has_value());
}

TEST_F(RepairTest, RepairTransfersRideTheBackgroundLane) {
  BuildShards(2, 10);
  TripBreaker(1);
  ASSERT_TRUE(router_->Store(TextObject(15, "lane body")).ok());
  HealShard(1);

  // A repair transfer failure must never trip the healed breaker: wire
  // an injector that kills only background traffic, then sync.
  FaultProfile storm;
  storm.fail_first_n = 1000;
  storm.op_filter = "background";
  FaultInjector chaos(storm, 0xC0FFEE, &clock_);
  stacks_[1]->link.SetFaultInjector(&chaos);

  const RepairReport report = repair_->Sync();
  // Shard 1's digest could not even ship: the round leaves the debt in
  // place without inventing repairs.
  EXPECT_EQ(report.digests_exchanged, 1u);
  EXPECT_EQ(report.replicas_repaired, 0u);
  EXPECT_EQ(report.under_replicated, 1u);
  // Background failures never count against the breaker: the digest
  // transfer consumed the half-open probe slot, but its failure carried
  // no weight, so the link stays routable instead of re-opening.
  EXPECT_NE(stacks_[1]->link.breaker().state(),
            CircuitBreaker::State::kOpen);
  EXPECT_TRUE(router_->IsLive(1));

  // Chaos over; the next sync converges and its successful digest
  // transfer finally closes the breaker.
  stacks_[1]->link.SetFaultInjector(nullptr);
  const RepairReport clean = repair_->Sync();
  EXPECT_EQ(clean.replicas_repaired, 1u);
  EXPECT_EQ(clean.under_replicated, 0u);
  EXPECT_EQ(stacks_[1]->server.object_count(), 1u);
  EXPECT_EQ(stacks_[1]->link.breaker().state(),
            CircuitBreaker::State::kClosed);
}

TEST_F(RepairTest, RottenSourceLeavesDeficitPendingNotPropagated) {
  BuildShards(2, 10);
  TripBreaker(1);
  // Tear the only copy's bytes as they land on shard 0's media: the
  // catalog's cached checksum stays clean, the platter lies. The tear
  // hits a low byte of the first block — inside the archived image, not
  // the block padding.
  stacks_[0]->device.SetWriteFaultHook([](uint64_t, std::string* data) {
    if (data->size() > 8) (*data)[8] = static_cast<char>((*data)[8] ^ 0x40);
    return Status::OK();
  });
  ASSERT_TRUE(router_->Store(TextObject(15, "rotten body")).ok());
  stacks_[0]->device.SetWriteFaultHook(nullptr);
  // By the time the heal lands the block cache has turned over, so the
  // repair's source read serves the platter's truth, not the cache's
  // memory of the clean write.
  stacks_[0]->cache.Clear();
  HealShard(1);

  const int64_t failures_before = Count("repair.failures_total");
  const RepairReport report = repair_->Sync();
  // The repair was planned, the damage was detected, nothing rotten
  // reached shard 1, and the deficit stays visible as pending work.
  EXPECT_EQ(report.replicas_repaired, 0u);
  EXPECT_GE(report.repair_failures, 1u);
  EXPECT_EQ(report.under_replicated, 1u);
  EXPECT_EQ(report.pending, 1u);
  EXPECT_EQ(GaugeVal("repair.pending"), 1.0);
  EXPECT_EQ(stacks_[1]->server.object_count(), 0u);
  EXPECT_GT(Count("repair.failures_total"), failures_before);
  EXPECT_TRUE(repair_->sync_pending());
}

TEST_F(RepairTest, ScrubDetectsMediaRotAndRepairsTheRottenReplica) {
  RepairOptions options;
  options.scrub = true;
  BuildShards(2, 10, options);
  // Rot lands on shard 1's platter mid-store; shard 0's copy is clean.
  // A low byte of the first block is guaranteed to sit inside the
  // archived image, where the scrub's platter read can see it.
  stacks_[1]->device.SetWriteFaultHook([](uint64_t, std::string* data) {
    if (data->size() > 8) (*data)[8] = static_cast<char>((*data)[8] ^ 0x40);
    return Status::OK();
  });
  ASSERT_TRUE(router_->Store(TextObject(15, "scrubbed body")).ok());
  stacks_[1]->device.SetWriteFaultHook(nullptr);

  // Without scrub the cached checksums agree and nothing is detected;
  // the scrubbing sync re-reads the platters and sees the divergence.
  const RepairReport report = repair_->Sync();
  EXPECT_EQ(report.replicas_repaired, 1u);
  EXPECT_EQ(report.under_replicated, 0u);
  auto fetched = stacks_[1]->server.Fetch(15);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NE(fetched->text_part().contents().find("scrubbed"),
            std::string::npos);
  // Converged: a second scrub finds clean media everywhere.
  const RepairReport again = repair_->Sync();
  EXPECT_EQ(again.replicas_repaired, 0u);
  EXPECT_EQ(again.under_replicated, 0u);
}

TEST_F(RepairTest, ScheduledScrubCycleDetectsRotOnItsInterval) {
  // Satellite: a scrub *cycle*. options.scrub stays false (ordinary
  // syncs use cached checksums); the interval alone promotes a round to
  // a platter-reading scrub once enough simulated time has passed.
  RepairOptions options;
  options.scrub_interval = MillisToMicros(500);
  BuildShards(2, 10, options);
  // Rot lands on shard 1's platter mid-store, invisible to cached
  // checksums — only a scrub's platter read can see it.
  stacks_[1]->device.SetWriteFaultHook([](uint64_t, std::string* data) {
    if (data->size() > 8) (*data)[8] = static_cast<char>((*data)[8] ^ 0x40);
    return Status::OK();
  });
  ASSERT_TRUE(router_->Store(TextObject(15, "cycle body")).ok());
  stacks_[1]->device.SetWriteFaultHook(nullptr);

  // No debt and the interval has not elapsed: nothing runs, the rot
  // sits undetected.
  const int64_t scrubs_before = Count("repair.scrubs_total");
  EXPECT_FALSE(repair_->sync_pending());
  EXPECT_FALSE(repair_->SyncIfPending().has_value());

  // The interval elapses: the next pending check fires a scrub round in
  // the background lane, and the platter read finds the divergence.
  clock_.Advance(options.scrub_interval + 1);
  ASSERT_TRUE(repair_->sync_pending());
  const Micros due_at = clock_.Now();
  std::optional<RepairReport> report = repair_->SyncIfPending();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->replicas_repaired, 1u);
  EXPECT_EQ(Count("repair.scrubs_total"), scrubs_before + 1);
  EXPECT_EQ(repair_->last_scrub(), due_at);
  EXPECT_TRUE(stacks_[1]->server.Fetch(15).ok());

  // The cycle re-arms: quiet until the next interval, then a clean
  // scheduled scrub finds converged media.
  EXPECT_FALSE(repair_->sync_pending());
  clock_.Advance(options.scrub_interval + 1);
  report = repair_->SyncIfPending();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->replicas_repaired, 0u);
  EXPECT_EQ(Count("repair.scrubs_total"), scrubs_before + 2);
}

TEST_F(RepairTest, TamperedDigestIsRejectedAndItsShardSkipped) {
  BuildShards(2, 10);
  ASSERT_TRUE(router_->Store(TextObject(15, "tap body")).ok());
  const size_t count_before_0 = stacks_[0]->server.object_count();
  const size_t count_before_1 = stacks_[1]->server.object_count();
  const int64_t rejects_before = Count("repair.digest_rejects_total");

  repair_->SetDigestTap([](size_t shard, std::string* wire) {
    if (shard == 1 && !wire->empty()) {
      (*wire)[wire->size() / 2] =
          static_cast<char>((*wire)[wire->size() / 2] ^ 0x01);
    }
  });
  const RepairReport report = repair_->Sync();
  EXPECT_EQ(report.digests_rejected, 1u);
  EXPECT_EQ(report.digests_exchanged, 1u);
  // Never destructive: no catalog changed, nothing shipped to or from
  // the shard whose summary could not be verified; the object merely
  // counts unverified (under-replicated) until a clean exchange.
  EXPECT_EQ(report.replicas_repaired, 0u);
  EXPECT_EQ(report.under_replicated, 1u);
  EXPECT_EQ(stacks_[0]->server.object_count(), count_before_0);
  EXPECT_EQ(stacks_[1]->server.object_count(), count_before_1);
  EXPECT_EQ(Count("repair.digest_rejects_total"), rejects_before + 1);

  repair_->SetDigestTap(nullptr);
  const RepairReport clean = repair_->Sync();
  EXPECT_EQ(clean.digests_rejected, 0u);
  EXPECT_EQ(clean.replicas_repaired, 0u);  // Data was never damaged.
  EXPECT_EQ(clean.under_replicated, 0u);
}

TEST_F(RepairTest, SyncScheduleIsDeterministicAcrossIdenticalRuns) {
  auto run = [](SimClock* clock, RepairReport* report,
                std::vector<CatalogDigest>* digests) {
    std::vector<std::unique_ptr<ShardStack>> stacks;
    for (size_t i = 0; i < 4; ++i) {
      stacks.push_back(std::make_unique<ShardStack>(clock));
    }
    std::vector<ObjectServer*> servers;
    for (auto& stack : stacks) servers.push_back(&stack->server);
    ShardRouter router(servers, clock, RangePlacement(10));
    RepairManager repair(&router, clock);

    CircuitBreaker::Options options;
    options.failure_threshold = 3;
    stacks[2]->link.ConfigureBreaker(options);
    for (int f = 0; f < 3; ++f) stacks[2]->link.breaker().RecordFailure();
    for (ObjectId id : {5u, 15u, 25u, 35u, 22u, 28u}) {
      ASSERT_TRUE(
          router.Store(TextObject(id, "det body " + std::to_string(id)))
              .ok());
    }
    clock->Advance(stacks[2]->link.breaker().options().cooldown_us + 1);
    ASSERT_TRUE(router.IsLive(2));
    *report = repair.Sync();
    for (auto& stack : stacks) {
      digests->push_back(stack->server.BuildCatalogDigest());
    }
  };

  SimClock clock_a, clock_b;
  RepairReport report_a, report_b;
  std::vector<CatalogDigest> digests_a, digests_b;
  run(&clock_a, &report_a, &digests_a);
  run(&clock_b, &report_b, &digests_b);

  EXPECT_GT(report_a.replicas_repaired, 0u);
  EXPECT_EQ(report_a.under_replicated, 0u);
  EXPECT_EQ(report_a.digests_exchanged, report_b.digests_exchanged);
  EXPECT_EQ(report_a.objects_checked, report_b.objects_checked);
  EXPECT_EQ(report_a.replicas_repaired, report_b.replicas_repaired);
  EXPECT_EQ(report_a.bytes_shipped, report_b.bytes_shipped);
  EXPECT_EQ(report_a.under_replicated, report_b.under_replicated);
  EXPECT_EQ(report_a.pending, report_b.pending);
  // Same seed, same schedule, same simulated time, identical catalogs.
  EXPECT_EQ(clock_a.Now(), clock_b.Now());
  EXPECT_EQ(digests_a, digests_b);
}

TEST_F(RepairTest, SingleShardSyncIsACleanNoOp) {
  BuildShards(1, 100);
  ASSERT_TRUE(router_->Store(TextObject(5, "solo body")).ok());
  const RepairReport report = repair_->Sync();
  EXPECT_EQ(report.digests_exchanged, 1u);
  EXPECT_EQ(report.objects_checked, 1u);
  EXPECT_EQ(report.replicas_repaired, 0u);
  EXPECT_EQ(report.under_replicated, 0u);
  EXPECT_EQ(report.pending, 0u);
  EXPECT_FALSE(repair_->sync_pending());
}

// --- Shard-count change ------------------------------------------------

TEST_F(RepairTest, ExpandShardsMigratesRangesThenFlipsRoutingAtomically) {
  BuildShards(2, 10);
  for (ObjectId id : {5u, 15u, 25u}) {
    ASSERT_TRUE(
        router_->Store(TextObject(id, "moving body " + std::to_string(id)))
            .ok());
  }
  // Under the 2-shard table, id 25 clamps onto shard 1.
  EXPECT_EQ(router_->PrimaryOf(25), 1u);
  const uint64_t epoch_before = router_->routing_epoch();
  const int64_t migrations_before = Count("repair.migrations_total");

  auto third = std::make_unique<ShardStack>(&clock_);
  auto report = repair_->ExpandShards(&third->server);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->under_replicated, 0u);
  EXPECT_GT(report->replicas_repaired, 0u);

  // The table flipped in one step: modulus 3, fresh epoch, no staged
  // remainder, and the new shard owns its placement range.
  EXPECT_EQ(router_->active_count(), 3u);
  EXPECT_FALSE(router_->expansion_staged());
  EXPECT_GT(router_->routing_epoch(), epoch_before);
  EXPECT_EQ(GaugeVal("router.routing_epoch"),
            static_cast<double>(router_->routing_epoch()));
  EXPECT_EQ(router_->PrimaryOf(25), 2u);
  // New chains: 15 -> {1,2}, 25 -> {2,0}; both live on the new shard.
  EXPECT_EQ(third->server.object_count(), 2u);
  EXPECT_EQ(Count("repair.migrations_total"), migrations_before + 1);
  for (ObjectId id : {5u, 15u, 25u}) {
    EXPECT_TRUE(router_->Fetch(id).ok()) << "id " << id;
  }
  EXPECT_EQ(router_->QueryAll({"moving"}),
            (std::vector<ObjectId>{5, 15, 25}));
}

TEST_F(RepairTest, ExpandShardsFailsClosedWhileAShardIsDark) {
  BuildShards(2, 10);
  ASSERT_TRUE(router_->Store(TextObject(15, "guarded body")).ok());
  TripBreaker(1);

  auto third = std::make_unique<ShardStack>(&clock_);
  auto refused = repair_->ExpandShards(&third->server);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable());
  // Nothing changed: old modulus, nothing staged, no migration counted.
  EXPECT_EQ(router_->active_count(), 2u);
  EXPECT_FALSE(router_->expansion_staged());
  EXPECT_EQ(third->server.object_count(), 0u)
      << "refused expansion must not stream data";

  // Once the fabric heals the same call is retryable and completes.
  HealShard(1);
  auto report = repair_->ExpandShards(&third->server);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(router_->active_count(), 3u);
  EXPECT_EQ(report->under_replicated, 0u);
}

// --- Fault matrix ------------------------------------------------------

TEST_F(RepairTest, AppendTimeMediaErrorDegradesOneReplicaUntilRepaired) {
  BuildShards(2, 10);
  // Shard 1's media refuses the write outright: the Append-time fault
  // fails that replica's store (catalog and indexes untouched) while
  // the shard itself stays routable.
  stacks_[1]->device.SetWriteFaultHook([](uint64_t, std::string*) {
    return Status::Corruption("media error: write refused");
  });
  const int64_t store_errors_before =
      Count("router.replica_store_errors_total");
  ASSERT_TRUE(router_->Store(TextObject(15, "append fault body")).ok());
  stacks_[1]->device.SetWriteFaultHook(nullptr);

  EXPECT_EQ(stacks_[0]->server.object_count(), 1u);
  EXPECT_EQ(stacks_[1]->server.object_count(), 0u);
  EXPECT_GT(Count("router.replica_store_errors_total"),
            store_errors_before);
  EXPECT_EQ(router_->under_replicated(), std::set<ObjectId>{15});
  ASSERT_TRUE(repair_->sync_pending());

  // The shard never went dark, so repair needs no heal event: the
  // degraded-store debt alone drives the round.
  const RepairReport report = repair_->Sync();
  EXPECT_EQ(report.replicas_repaired, 1u);
  EXPECT_EQ(report.under_replicated, 0u);
  EXPECT_EQ(stacks_[1]->server.object_count(), 1u);
  EXPECT_TRUE(stacks_[1]->server.Fetch(15).ok());
}

// --- Shared successors ---------------------------------------------
//
// A replicated Append builds its successor once and shares the image
// with every later replica that holds the same cataloged prior. These
// tests pin the cases where a replica must NOT share it.

TEST_F(RepairTest, LaggingReplicaBuildsItsOwnSuccessor) {
  BuildShards(2, 10);
  const ObjectId id = 5;  // Replica chain: shard 0, then shard 1.
  ASSERT_TRUE(router_->Store(TextObject(id, "lagging prior body")).ok());
  auto prior = stacks_[1]->server.Fetch(id);
  ASSERT_TRUE(prior.ok());
  const std::string prior_text = prior->text_part().contents();

  // Append A lands on shard 0 only: shard 1's media refuses the write.
  ObjectServer::AppendParts a;
  a.text = "alpha addendum";
  stacks_[1]->device.SetWriteFaultHook([](uint64_t, std::string*) {
    return Status::Corruption("media error: write refused");
  });
  ASSERT_TRUE(router_->Append(id, a).ok());
  stacks_[1]->device.SetWriteFaultHook(nullptr);
  EXPECT_EQ(router_->under_replicated(), std::set<ObjectId>{id});

  // Append B reaches both. Shard 0's successor (prior+A+B) is recorded
  // first; shard 1 holds an older prior and must build prior+B itself.
  ObjectServer::AppendParts b;
  b.text = "beta addendum";
  ASSERT_TRUE(router_->Append(id, b).ok());
  auto lead = stacks_[0]->server.Fetch(id);
  auto lag = stacks_[1]->server.Fetch(id);
  ASSERT_TRUE(lead.ok());
  ASSERT_TRUE(lag.ok());
  EXPECT_EQ(lead->text_part().contents(),
            prior_text + "alpha addendum" + "beta addendum");
  EXPECT_EQ(lag->text_part().contents(), prior_text + "beta addendum");

  // Anti-entropy still converges the lagging replica onto the latest.
  const RepairReport report = repair_->Sync();
  EXPECT_EQ(report.under_replicated, 0u);
  auto lead_bytes = stacks_[0]->server.ReadObjectBytes(id);
  auto lag_bytes = stacks_[1]->server.ReadObjectBytes(id);
  ASSERT_TRUE(lead_bytes.ok());
  ASSERT_TRUE(lag_bytes.ok());
  EXPECT_EQ(*lag_bytes, *lead_bytes);
}

TEST_F(RepairTest, SalvagedPriorIsNeverShared) {
  BuildShards(2, 10);
  const ObjectId id = 5;  // Replica chain: shard 0, then shard 1.
  ASSERT_TRUE(
      router_->Store(TextAndVoiceObject(id, "spoken prior body words")).ok());
  // Shard 0's device flips one byte mid-image, inside the voice part's
  // samples, on every read; with its cache emptied the Append's read of
  // the prior reaches the device, fails the voice checksum and salvages
  // the object without its voice part.
  auto current = stacks_[0]->versions.Current(id);
  ASSERT_TRUE(current.ok());
  const uint64_t rot = current->address.offset + current->address.length / 2;
  const uint64_t block_size = stacks_[0]->device.block_size();
  stacks_[0]->cache.Clear();
  stacks_[0]->device.SetReadFaultHook(
      [&](uint64_t block, uint64_t count, std::string* out) {
        if (rot >= block * block_size && rot < (block + count) * block_size) {
          (*out)[rot - block * block_size] ^= 0x5A;
        }
        return Status::OK();
      });
  ObjectServer::AppendParts more;
  more.text = "written addendum";
  const int64_t salvages = Count("server.fetch_salvages");
  ASSERT_TRUE(router_->Append(id, more).ok());
  stacks_[0]->device.SetReadFaultHook(nullptr);
  EXPECT_EQ(Count("server.fetch_salvages"), salvages + 1);

  // Shard 0's successor lost the voice; shard 1 read an intact prior
  // and must keep it.
  auto salvaged = stacks_[0]->server.Fetch(id);
  auto healthy = stacks_[1]->server.Fetch(id);
  ASSERT_TRUE(salvaged.ok());
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(salvaged->has_voice());
  ASSERT_TRUE(healthy->has_voice());
  EXPECT_FALSE(healthy->voice_part().track().words.empty());
  EXPECT_NE(healthy->text_part().contents().find("written addendum"),
            std::string::npos);
}

TEST_F(RepairTest, SharedSuccessorsMatchALoneServersImages) {
  BuildShards(2, 10);
  ShardStack lone(&clock_);
  const std::vector<ObjectId> ids = {3, 14};  // One primary per shard.
  for (ObjectId id : ids) {
    const MultimediaObject obj =
        TextObject(id, "identity body " + std::to_string(id));
    ASSERT_TRUE(router_->Store(obj).ok());
    ASSERT_TRUE(lone.server.Store(obj).ok());
  }
  // A low sample rate keeps 200 whole-version re-archives small.
  voice::SpeakerParams speaker;
  speaker.sample_rate = 1000;
  const voice::SpeechSynthesizer synth(speaker);
  Random rng(29);
  for (int i = 0; i < 200; ++i) {
    const ObjectId id = ids[rng.Uniform(ids.size())];
    const std::string words = "entry" + std::to_string(i) + " word" +
                              std::to_string(rng.Uniform(40));
    ObjectServer::AppendParts parts;
    if (rng.Uniform(2) == 0) {
      parts.text = words;
    } else {
      parts.voice = synth.SynthesizeWords(SplitWords(words));
    }
    ASSERT_TRUE(router_->Append(id, parts).ok()) << "append " << i;
    ASSERT_TRUE(lone.server.Append(id, parts).ok()) << "append " << i;
  }
  for (ObjectId id : ids) {
    auto expected = lone.server.ReadObjectBytes(id);
    ASSERT_TRUE(expected.ok());
    for (size_t shard = 0; shard < stacks_.size(); ++shard) {
      auto got = stacks_[shard]->server.ReadObjectBytes(id);
      ASSERT_TRUE(got.ok()) << "shard " << shard << " id " << id;
      EXPECT_TRUE(*got == *expected) << "shard " << shard << " id " << id;
    }
  }
}

TEST_F(RepairTest, ConcurrentSessionStormConvergesOnceHealed) {
  BuildShards(4, 10);
  std::vector<std::unique_ptr<FaultInjector>> chaos;
  for (size_t i = 0; i < stacks_.size(); ++i) {
    CircuitBreaker::Options options;
    options.failure_threshold = 3;
    stacks_[i]->link.ConfigureBreaker(options);
    chaos.push_back(std::make_unique<FaultInjector>(
        FaultProfile::Storm(), 0xBAD5EED0 + i, &clock_));
    stacks_[i]->link.SetFaultInjector(chaos.back().get());
  }

  // Twelve interleaved sessions store and immediately browse; the storm
  // trips breakers mid-flight, so stores land short and reads fail over.
  std::vector<ObjectId> ids;
  for (ObjectId id = 1; id <= 36; id += 3) {
    ids.push_back(id);
    ASSERT_TRUE(
        router_->Store(TextObject(id, "storm body " + std::to_string(id)))
            .ok());
    (void)router_->Fetch(id);
    (void)router_->GatherCards(router_->QueryAll({"storm"}));
  }

  // The weather passes: chaos off, cooldowns expire, breakers readmit.
  for (auto& stack : stacks_) stack->link.SetFaultInjector(nullptr);
  clock_.Advance(MillisToMicros(600));
  EXPECT_EQ(router_->live_count(), 4u);

  // However the storm scrambled the copies, anti-entropy converges the
  // archive back to full redundancy — possibly over a couple of rounds
  // (a round can leave work pending when a probe transfer fails).
  RepairReport report = repair_->Sync();
  for (int round = 0; round < 3 && report.under_replicated > 0; ++round) {
    report = repair_->Sync();
  }
  EXPECT_EQ(report.under_replicated, 0u);
  EXPECT_EQ(report.pending, 0u);
  EXPECT_TRUE(router_->under_replicated().empty());
  EXPECT_EQ(GaugeVal("router.under_replicated"), 0.0);
  for (ObjectId id : ids) {
    EXPECT_TRUE(router_->Fetch(id).ok()) << "id " << id;
  }
  EXPECT_EQ(router_->QueryAll({"storm"}), ids);
}

}  // namespace
}  // namespace minos::server
