// The ranked content-retrieval engine: BM25-style scoring over the
// insertion-time scored index, confidence-weighted voice postings,
// top-k scatter/gather merge across shards (identical to one server),
// replica dedup, tied-score determinism, the workstation's version-
// stamped result cache, and degraded-not-crashed behaviour under fault
// storms.

#include "minos/query/query_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "minos/query/result_cache.h"
#include "minos/query/scored_index.h"
#include "minos/server/shard_router.h"
#include "minos/server/workstation.h"
#include "minos/text/markup.h"
#include "minos/voice/synthesizer.h"

namespace minos::server {
namespace {

using object::MultimediaObject;
using object::VisualPageSpec;
using query::QueryMode;
using query::ScoredHit;
using storage::ObjectId;

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

MultimediaObject AudioObject(ObjectId id, const std::string& body) {
  MultimediaObject obj(id);
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\n" + body + "\n");
  EXPECT_TRUE(doc.ok());
  voice::SpeechSynthesizer synth{voice::SpeakerParams{}};
  auto track = synth.Synthesize(*doc);
  EXPECT_TRUE(track.ok());
  EXPECT_TRUE(
      obj.SetVoicePart(voice::VoiceDocument(std::move(track).value())).ok());
  obj.descriptor().driving_mode = object::DrivingMode::kAudio;
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

int64_t Count(const std::string& name) {
  return static_cast<int64_t>(
      obs::MetricsRegistry::Default().counter(name)->value());
}

std::vector<ObjectId> IdsOf(const std::vector<ScoredHit>& hits) {
  std::vector<ObjectId> ids;
  for (const ScoredHit& hit : hits) ids.push_back(hit.id);
  return ids;
}

std::vector<ObjectId> IdsOf(const std::vector<MiniatureCard>& cards) {
  std::vector<ObjectId> ids;
  for (const MiniatureCard& card : cards) ids.push_back(card.id);
  return ids;
}

/// The corpus every topology test stores: graded relevance for
/// "fracture", one distractor.
void StoreCorpus(ObjectStore& store) {
  ASSERT_TRUE(
      store.Store(TextObject(1, "fracture fracture fracture ward")).ok());
  ASSERT_TRUE(store.Store(TextObject(2, "fracture fracture clinic")).ok());
  ASSERT_TRUE(store.Store(TextObject(3, "fracture mention only")).ok());
  ASSERT_TRUE(store.Store(TextObject(4, "subway line drawings")).ok());
  ASSERT_TRUE(
      store.Store(TextObject(5, "fracture fracture fracture notes")).ok());
}

/// The GatherCards contract every store keeps, over the StoreCorpus:
/// cards come back in the order of the ids asked for, ascending or not,
/// and an id no store can build (99 was never stored) drops out of the
/// strip instead of failing it.
void ExpectGatherFollowsIds(ObjectStore& store) {
  const std::vector<ObjectId> ascending{1, 2, 3, 5};
  EXPECT_EQ(IdsOf(store.GatherCards(ascending)), ascending);
  const std::vector<ObjectId> ranked =
      IdsOf(store.QueryRanked({"fracture"}, 10));
  EXPECT_EQ(ranked, (std::vector<ObjectId>{1, 5, 2, 3}));
  EXPECT_EQ(IdsOf(store.GatherCards(ranked)), ranked);
  EXPECT_EQ(IdsOf(store.GatherCards({5, 99, 1})),
            (std::vector<ObjectId>{5, 1}));
}

// --- Single server ------------------------------------------------------

class RankedQueryTest : public ::testing::Test {
 protected:
  RankedQueryTest()
      : device_("optical", 65536, 512,
                storage::DeviceCostModel::Instant(), true, &clock_),
        cache_(256),
        archiver_(&device_, &cache_),
        link_(Link::Ethernet(&clock_)),
        server_(&archiver_, &versions_, &clock_, &link_) {}

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BlockCache cache_;
  storage::Archiver archiver_;
  storage::VersionStore versions_;
  Link link_;
  ObjectServer server_;
};

TEST_F(RankedQueryTest, TermFrequencyDrivesTheRanking) {
  ASSERT_TRUE(
      server_.Store(TextObject(1, "fracture mentioned once here")).ok());
  ASSERT_TRUE(server_.Store(
                         TextObject(2, "fracture fracture fracture report"))
                  .ok());
  ASSERT_TRUE(server_.Store(TextObject(3, "unrelated subway notes")).ok());

  const std::vector<ScoredHit> hits = server_.QueryRanked({"fracture"}, 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 2u);  // Three occurrences outrank one.
  EXPECT_EQ(hits[1].id, 1u);
  EXPECT_GT(hits[0].score, hits[1].score);
}

TEST_F(RankedQueryTest, RankedQueryChargesScoringTimeToTheClock) {
  ASSERT_TRUE(server_.Store(TextObject(1, "costed fracture body")).ok());
  const Micros before = clock_.Now();
  ASSERT_EQ(server_.QueryRanked({"fracture"}, 4).size(), 1u);
  EXPECT_GT(clock_.Now(), before);
}

TEST_F(RankedQueryTest, TiedScoresBreakByAscendingId) {
  // Identical bodies, stored out of id order: identical scores, so the
  // tie must break deterministically by ascending id.
  for (ObjectId id : {7u, 3u, 9u, 5u}) {
    ASSERT_TRUE(server_.Store(TextObject(id, "identical tied body")).ok());
  }
  const std::vector<ScoredHit> hits = server_.QueryRanked({"tied"}, 10);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].id, 3u);
  EXPECT_EQ(hits[1].id, 5u);
  EXPECT_EQ(hits[2].id, 7u);
  EXPECT_EQ(hits[3].id, 9u);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_DOUBLE_EQ(hits[i].score, hits[0].score);
  }
}

TEST_F(RankedQueryTest, KLargerThanMatchCountReturnsEveryMatch) {
  ASSERT_TRUE(server_.Store(TextObject(1, "sparse term alpha")).ok());
  ASSERT_TRUE(server_.Store(TextObject(2, "sparse term beta")).ok());
  EXPECT_EQ(server_.QueryRanked({"sparse"}, 100).size(), 2u);
  EXPECT_EQ(server_.QueryRanked({"sparse"}, 1).size(), 1u);
  EXPECT_TRUE(server_.QueryRanked({"absent"}, 5).empty());
  EXPECT_TRUE(server_.QueryRanked({"sparse"}, 0).empty());
}

TEST_F(RankedQueryTest, ConjunctiveNeedsAllWordsDisjunctiveAnyWord) {
  ASSERT_TRUE(server_.Store(TextObject(1, "red apples and pears")).ok());
  ASSERT_TRUE(server_.Store(TextObject(2, "red bricks and mortar")).ok());

  const std::vector<ScoredHit> both =
      server_.QueryRanked({"red", "apples"}, 10);
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].id, 1u);

  const std::vector<ScoredHit> any = server_.QueryRanked(
      {"red", "apples"}, 10, QueryMode::kDisjunctive);
  ASSERT_EQ(any.size(), 2u);
  // The two-term match outranks the one-term match.
  EXPECT_EQ(any[0].id, 1u);
  EXPECT_GT(any[0].score, any[1].score);
}

TEST_F(RankedQueryTest, QueryWordsFoldLikeTheIndexDoes) {
  // The regression the fold unification fixes: the index folds
  // "Chapter," (trailing punctuation in running text) to "chapter", so
  // every query spelling of the word must fold the same way.
  ASSERT_TRUE(
      server_.Store(TextObject(1, "the restoration Chapter, begins")).ok());
  const std::vector<ObjectId> expected{1};
  EXPECT_EQ(server_.QueryAll({"chapter"}), expected);
  EXPECT_EQ(server_.QueryAll({"Chapter"}), expected);
  EXPECT_EQ(server_.QueryAll({"CHAPTER,"}), expected);
  EXPECT_EQ(server_.QueryAll({"chapter."}), expected);
  ASSERT_EQ(server_.QueryRanked({"Chapter,"}, 5).size(), 1u);
  EXPECT_DOUBLE_EQ(server_.QueryRanked({"Chapter,"}, 5)[0].score,
                   server_.QueryRanked({"chapter"}, 5)[0].score);
}

TEST_F(RankedQueryTest, VoicePostingsAreConfidenceWeighted) {
  // The same words spoken and written: the recognizer profile discounts
  // the spoken evidence, so the text object outranks the audio one.
  ASSERT_TRUE(
      server_.Store(AudioObject(4, "dictated fracture findings")).ok());
  ASSERT_TRUE(
      server_.Store(TextObject(2, "dictated fracture findings")).ok());

  const auto& postings = server_.scored_index().Postings("fracture");
  ASSERT_EQ(postings.size(), 2u);
  const query::TermPosting& voiced = postings.at(4);
  const query::TermPosting& written = postings.at(2);
  EXPECT_EQ(voiced.text_tf, 0.0);
  EXPECT_GT(voiced.voice_tf, 0.0);
  EXPECT_LT(voiced.voice_tf, written.text_tf);
  EXPECT_DOUBLE_EQ(
      voiced.voice_tf,
      query::VoiceConfidence(server_.recognizer_profile()));

  const std::vector<ScoredHit> hits = server_.QueryRanked({"fracture"}, 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 2u);
  EXPECT_GT(hits[0].score, hits[1].score);

  // A perfect recognizer erases the discount.
  EXPECT_DOUBLE_EQ(
      query::VoiceConfidence(voice::RecognizerParams{1.0, 0.0}), 1.0);
}

TEST_F(RankedQueryTest, GatherCardsFollowsTheOrderOfIds) {
  StoreCorpus(server_);
  const int64_t dropped_before = Count("server.cards_dropped");
  ExpectGatherFollowsIds(server_);
  EXPECT_EQ(Count("server.cards_dropped"), dropped_before + 1);
}

// --- Result cache -------------------------------------------------------

TEST(QueryResultCacheTest, KeyCanonicalizesWordOrderCaseAndDuplicates) {
  const std::string key = query::QueryResultCache::Key(
      {"Map", "chapter,"}, 5, QueryMode::kConjunctive);
  EXPECT_EQ(key, query::QueryResultCache::Key(
                     {"chapter", "map", "MAP"}, 5,
                     QueryMode::kConjunctive));
  EXPECT_NE(key, query::QueryResultCache::Key(
                     {"chapter", "map"}, 6, QueryMode::kConjunctive));
  EXPECT_NE(key, query::QueryResultCache::Key(
                     {"chapter", "map"}, 5, QueryMode::kDisjunctive));
}

TEST(QueryResultCacheTest, StaleVersionDropsTheEntry) {
  query::QueryResultCache cache(4);
  cache.Insert("q", /*catalog_version=*/3, {ScoredHit{1, 0.5}});
  auto hit = cache.Lookup("q", 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].id, 1u);
  // A Store bumped the version: the entry is stale and gone.
  EXPECT_FALSE(cache.Lookup("q", 4).has_value());
  EXPECT_FALSE(cache.Lookup("q", 3).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QueryResultCacheTest, CapacityEvictsTheLeastRecentlyUsed) {
  query::QueryResultCache cache(2);
  cache.Insert("a", 1, {ScoredHit{1, 1.0}});
  cache.Insert("b", 1, {ScoredHit{2, 1.0}});
  ASSERT_TRUE(cache.Lookup("a", 1).has_value());  // "b" is now LRU.
  cache.Insert("c", 1, {ScoredHit{3, 1.0}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup("a", 1).has_value());
  EXPECT_FALSE(cache.Lookup("b", 1).has_value());
  EXPECT_TRUE(cache.Lookup("c", 1).has_value());
}

// --- Sharded topologies -------------------------------------------------

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

class RankedShardTest : public ::testing::Test {
 protected:
  void BuildShards(size_t n, int replication = 2) {
    stacks_.clear();
    for (size_t i = 0; i < n; ++i) {
      stacks_.push_back(std::make_unique<ShardStack>(&clock_));
    }
    std::vector<ObjectServer*> servers;
    for (auto& stack : stacks_) servers.push_back(&stack->server);
    ShardRouterOptions options;
    options.replication = replication;
    router_.emplace(servers, &clock_, HashPlacement(), options);
  }

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

  SimClock clock_;
  std::vector<std::unique_ptr<ShardStack>> stacks_;
  std::optional<ShardRouter> router_;
};

TEST_F(RankedShardTest, FourShardMergeMatchesOneServerExactly) {
  // The whole point of scoring against the router's catalog-wide
  // statistics: a 1-shard and a 4-shard archive of the same corpus must
  // return identical ids AND identical scores.
  BuildShards(1, 1);
  StoreCorpus(*router_);
  const std::vector<ScoredHit> one = router_->QueryRanked({"fracture"}, 3);

  BuildShards(4, 2);
  StoreCorpus(*router_);
  const std::vector<ScoredHit> four = router_->QueryRanked({"fracture"}, 3);

  ASSERT_EQ(one.size(), 3u);
  ASSERT_EQ(four.size(), 3u);
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(four[i].id, one[i].id) << "rank " << i;
    EXPECT_DOUBLE_EQ(four[i].score, one[i].score) << "rank " << i;
  }
}

TEST_F(RankedShardTest, FullReplicationDedupsToOneHitPerObject) {
  // Replication == shard count: every shard holds (and reports) every
  // object, the worst duplicate pressure a merge can see.
  BuildShards(3, 3);
  StoreCorpus(*router_);
  const std::vector<ScoredHit> hits = router_->QueryRanked({"fracture"}, 10);
  ASSERT_EQ(hits.size(), 4u);
  std::set<ObjectId> ids;
  for (const ScoredHit& hit : hits) ids.insert(hit.id);
  EXPECT_EQ(ids.size(), hits.size());
  // Best-first with the id tiebreak: 1 and 5 tie, then 2, then 3.
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 5u);
  EXPECT_DOUBLE_EQ(hits[0].score, hits[1].score);
  EXPECT_EQ(hits[2].id, 2u);
  EXPECT_EQ(hits[3].id, 3u);
}

TEST_F(RankedShardTest, ShardsWithoutMatchesContributeNothing) {
  BuildShards(4, 1);
  // Two objects only: at least two shards are empty for every query.
  ASSERT_TRUE(router_->Store(TextObject(1, "lonely fracture story")).ok());
  ASSERT_TRUE(router_->Store(TextObject(2, "subway drawings")).ok());
  const std::vector<ScoredHit> hits = router_->QueryRanked({"fracture"}, 8);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_TRUE(router_->QueryRanked({"absent"}, 8).empty());
}

TEST_F(RankedShardTest, RankedScatterAdvancesByTheSlowestShardNotTheSum) {
  BuildShards(4, 4);  // Every shard scores the whole corpus.
  StoreCorpus(*router_);
  const Micros start = clock_.Now();
  ASSERT_EQ(stacks_[0]->server.QueryRanked({"fracture"}, 3).size(), 3u);
  const Micros one_shard = clock_.Now() - start;
  clock_.RewindTo(start);
  ASSERT_EQ(router_->QueryRanked({"fracture"}, 3).size(), 3u);
  const Micros scattered = clock_.Now() - start;
  EXPECT_GT(scattered, 0);
  // Four equal shards overlapped: the scatter costs one shard's work,
  // not four (well under twice one shard's).
  EXPECT_LT(scattered, 2 * one_shard);
}

TEST_F(RankedShardTest, GatherCardsFollowsTheOrderOfIds) {
  BuildShards(2, 1);  // Each shard holds two of the four matches.
  StoreCorpus(*router_);
  const int64_t dropped_before = Count("router.dropped_results_total");
  ExpectGatherFollowsIds(*router_);
  EXPECT_EQ(Count("router.dropped_results_total"), dropped_before + 1);
}

TEST_F(RankedShardTest, EagerRankedStripOverlapsTheShards) {
  BuildShards(2, 1);  // Each shard holds two of the four matches.
  StoreCorpus(*router_);
  render::Screen screen;
  Workstation workstation(&*router_, &screen, &clock_);
  // The first query scores and warms the block caches; the second is
  // served from the ranked cache, so it costs only its strip.
  ASSERT_TRUE(workstation.QueryRanked({"fracture"}, 10).ok());
  const std::vector<ScoredHit> hits = router_->QueryRanked({"fracture"}, 10);
  ASSERT_EQ(hits.size(), 4u);

  Micros start = clock_.Now();
  for (const ScoredHit& hit : hits) {
    ASSERT_TRUE(router_->FetchMiniature(hit.id).ok());
  }
  const Micros one_at_a_time = clock_.Now() - start;

  start = clock_.Now();
  auto strip = workstation.QueryRanked({"fracture"}, 10);
  const Micros gathered = clock_.Now() - start;
  ASSERT_TRUE(strip.ok());
  ASSERT_EQ(strip->size(), hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    auto card = strip->Current();
    ASSERT_TRUE(card.ok());
    EXPECT_EQ((*card)->id, hits[i].id) << "rank " << i;
    EXPECT_DOUBLE_EQ((*card)->score, hits[i].score) << "rank " << i;
    if (i + 1 < hits.size()) {
      ASSERT_TRUE(strip->Next().ok());
    }
  }
  // The two shards build their halves of the strip side by side.
  EXPECT_GT(gathered, 0);
  EXPECT_LT(gathered, one_at_a_time);
}

TEST_F(RankedShardTest, DeadShardDegradesRankedResultsWithoutCrashing) {
  BuildShards(2, 1);  // No replicas: a dead shard's objects are gone.
  StoreCorpus(*router_);
  const size_t healthy = router_->QueryRanked({"fracture"}, 10).size();
  ASSERT_EQ(healthy, 4u);

  TripBreaker(0);
  const std::vector<ScoredHit> degraded =
      router_->QueryRanked({"fracture"}, 10);
  EXPECT_LT(degraded.size(), healthy);  // Partial, not an error.
  EXPECT_EQ(router_->GatherCards(IdsOf(degraded)).size(), degraded.size());

  TripBreaker(1);
  EXPECT_TRUE(router_->QueryRanked({"fracture"}, 10).empty());
  // Nothing routes: even ids known to exist drop out of the strip.
  EXPECT_TRUE(router_->GatherCards(IdsOf(degraded)).empty());
}

TEST_F(RankedShardTest, RankedStripIsRecomputedOnceTheShardHeals) {
  BuildShards(2, 1);  // No replicas: shard 0's matches go dark with it.
  StoreCorpus(*router_);
  render::Screen screen;
  Workstation workstation(&*router_, &screen, &clock_);

  TripBreaker(0);
  auto degraded = workstation.QueryRanked({"fracture"}, 10);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->size(), 2u);

  // The cooldown passes and the router readmits shard 0. The cached
  // partial hit list must not outlive the routing table it was ranked
  // under.
  clock_.Advance(stacks_[0]->link.breaker().options().cooldown_us);
  ASSERT_EQ(router_->live_count(), 2u);
  auto healed = workstation.QueryRanked({"fracture"}, 10);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->size(), 4u);
}

// --- Workstation cache + ranked browsing --------------------------------

TEST_F(RankedQueryTest, WorkstationServesRepeatRankedQueriesFromCache) {
  ASSERT_TRUE(server_.Store(TextObject(1, "cached fracture story")).ok());
  ASSERT_TRUE(
      server_.Store(TextObject(2, "fracture fracture follow-up")).ok());

  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  const int64_t misses_before = Count("query.cache_misses");
  const int64_t ranked_before = Count("query.ranked_queries");

  auto first = workstation.QueryRanked({"fracture"}, 5);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 2u);
  auto card = first->Current();
  ASSERT_TRUE(card.ok());
  EXPECT_EQ((*card)->id, 2u);  // Best first.
  EXPECT_GT((*card)->score, 0.0);
  EXPECT_EQ(Count("query.cache_misses"), misses_before + 1);
  EXPECT_EQ(Count("query.ranked_queries"), ranked_before + 1);

  // Same query, unchanged archive: the hit list comes from the cache,
  // the server never scores again.
  const int64_t hits_before = Count("query.cache_hits");
  auto second = workstation.QueryRanked({"FRACTURE"}, 5);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 2u);
  EXPECT_EQ(Count("query.cache_hits"), hits_before + 1);
  EXPECT_EQ(Count("query.ranked_queries"), ranked_before + 1);

  // A Store bumps the catalog version: the cached strip is stale, the
  // re-query sees the new object.
  ASSERT_TRUE(
      server_.Store(TextObject(3, "fracture fracture fracture new")).ok());
  const int64_t invalidations_before = Count("query.cache_invalidations");
  auto third = workstation.QueryRanked({"fracture"}, 5);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->size(), 3u);
  auto best = third->Current();
  ASSERT_TRUE(best.ok());
  EXPECT_EQ((*best)->id, 3u);
  EXPECT_EQ(Count("query.cache_invalidations"), invalidations_before + 1);
  EXPECT_EQ(Count("query.ranked_queries"), ranked_before + 2);
}

TEST_F(RankedQueryTest, PrefetchingWorkstationBrowsesRankedStripLazily) {
  ASSERT_TRUE(server_.Store(TextObject(1, "lazy fracture once")).ok());
  ASSERT_TRUE(
      server_.Store(TextObject(2, "lazy fracture fracture twice")).ok());
  ASSERT_TRUE(
      server_.Store(TextObject(3, "fracture fracture fracture lazy")).ok());

  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  workstation.EnablePrefetch();
  auto browser = workstation.QueryRanked({"fracture"}, 3);
  ASSERT_TRUE(browser.ok());
  ASSERT_EQ(browser->size(), 3u);
  std::vector<ObjectId> order;
  std::vector<double> scores;
  for (;;) {
    auto card = browser->Current();
    ASSERT_TRUE(card.ok());
    order.push_back((*card)->id);
    scores.push_back((*card)->score);
    if (!browser->Next().ok()) break;
  }
  EXPECT_EQ(order, (std::vector<ObjectId>{3, 2, 1}));
  EXPECT_GT(scores[0], scores[1]);
  EXPECT_GT(scores[1], scores[2]);
}

// --- Incremental Append --------------------------------------------------

TEST_F(RankedQueryTest, AppendSurfacesNewTermsInRankedResults) {
  ASSERT_TRUE(server_.Store(TextObject(1, "fracture ward report")).ok());
  ASSERT_TRUE(server_.Store(TextObject(2, "fracture clinic notes")).ok());
  EXPECT_TRUE(server_.QueryRanked({"avalanche"}, 5).empty());
  const uint64_t version_before = server_.catalog_version();

  ObjectServer::AppendParts parts;
  parts.text = "avalanche avalanche rescue";
  auto appended = server_.Append(1, parts);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->version, 2u);
  EXPECT_FALSE(appended->delta.empty());
  EXPECT_GT(server_.catalog_version(), version_before);

  // The appended words are queryable immediately, weighted by tf.
  const std::vector<ScoredHit> hits = server_.QueryRanked({"avalanche"}, 5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(server_.scored_index().DocFreq("avalanche"), 1u);
  // Pre-append evidence is retained, not replaced: the object still
  // ranks for its original words.
  ASSERT_EQ(server_.QueryRanked({"ward"}, 5).size(), 1u);
  // The grown object re-archives as a new version; both the original
  // and the appended image stay fetchable (§5 version control).
  auto original = server_.FetchVersion(1, 1);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(original->text_part().contents().find("avalanche"),
            std::string::npos);
  auto grown = server_.FetchVersion(1, 2);
  ASSERT_TRUE(grown.ok());
  EXPECT_NE(grown->text_part().contents().find("avalanche"),
            std::string::npos);
}

TEST_F(RankedQueryTest, AppendInvalidatesWorkstationRankedCache) {
  // Satellite regression: an Append must bump the catalog version the
  // workstation's result cache is stamped with — a stale ranked strip
  // that omits appended content would violate read-your-writes.
  ASSERT_TRUE(server_.Store(TextObject(1, "fracture mention here")).ok());
  ASSERT_TRUE(
      server_.Store(TextObject(2, "fracture fracture follow-up")).ok());

  render::Screen screen;
  Workstation workstation(&server_, &screen, &clock_);
  auto first = workstation.QueryRanked({"fracture"}, 5);
  ASSERT_TRUE(first.ok());
  auto best = first->Current();
  ASSERT_TRUE(best.ok());
  EXPECT_EQ((*best)->id, 2u);

  // Repeat while the catalog is unchanged: served from cache.
  const int64_t hits_before = Count("query.cache_hits");
  ASSERT_TRUE(workstation.QueryRanked({"fracture"}, 5).ok());
  EXPECT_EQ(Count("query.cache_hits"), hits_before + 1);

  // Append enough evidence to flip the ranking. The cached strip is
  // stale the moment the append lands.
  ObjectServer::AppendParts parts;
  parts.text = "fracture fracture fracture fracture update";
  ASSERT_TRUE(server_.Append(1, parts).ok());
  const int64_t invalidations_before = Count("query.cache_invalidations");
  auto third = workstation.QueryRanked({"fracture"}, 5);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(Count("query.cache_invalidations"), invalidations_before + 1);
  auto refreshed = third->Current();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ((*refreshed)->id, 1u);  // The appended copy now leads.
}

TEST_F(RankedQueryTest, FailedAppendLeavesRankedIndexUntouched) {
  // Satellite fault matrix: whether the device rejects the write (media
  // error) or tears it (payload corrupted in place), the Append must not
  // leave phantom statistics behind — df, lengths, and the catalog
  // version stay exactly as they were, because the index only folds the
  // delta after the device write lands.
  ASSERT_TRUE(server_.Store(TextObject(1, "fracture baseline body")).ok());
  const uint64_t version_before = server_.catalog_version();
  const double length_before = server_.scored_index().DocLength(1);
  const uint64_t docs_before = server_.scored_index().stats().doc_count;

  ObjectServer::AppendParts parts;
  parts.text = "phantom phantom phantom";

  // Row 1: the device rejects the write outright.
  device_.SetWriteFaultHook(
      [](uint64_t, std::string*) { return Status::Unavailable("media"); });
  EXPECT_FALSE(server_.Append(1, parts).ok());
  device_.SetWriteFaultHook(nullptr);
  EXPECT_EQ(server_.scored_index().DocFreq("phantom"), 0u);
  EXPECT_EQ(server_.scored_index().DocLength(1), length_before);
  EXPECT_EQ(server_.scored_index().stats().doc_count, docs_before);
  EXPECT_EQ(server_.catalog_version(), version_before);
  EXPECT_TRUE(server_.QueryRanked({"phantom"}, 5).empty());

  // Row 2: the fault cleared — the same append now goes through whole.
  auto retried = server_.Append(1, parts);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(server_.scored_index().DocFreq("phantom"), 1u);
  ASSERT_EQ(server_.QueryRanked({"phantom"}, 5).size(), 1u);

  // Row 3: a torn write commits garbled bytes. The device accepts it
  // (detection and salvage are the fetch path's job — see the torn-
  // write coverage in fault_injection_test), so whatever the append
  // reports, the statistics must stay consistent: the delta folds at
  // most once, never twice and never for a write that failed.
  device_.SetWriteFaultHook([](uint64_t, std::string* data) {
    if (!data->empty()) (*data)[data->size() / 2] ^= 0x5A;
    return Status::OK();
  });
  auto torn = server_.Append(1, parts);
  device_.SetWriteFaultHook(nullptr);
  EXPECT_EQ(server_.scored_index().DocFreq("phantom"), 1u);
  EXPECT_EQ(server_.scored_index().stats().doc_count, docs_before);
  if (torn.ok()) {
    EXPECT_EQ(server_.scored_index().DocLength(1),
              length_before + 6);  // Two clean-append word triples.
  }
}

TEST_F(RankedShardTest, RouterAppendAppliesDeltaWithoutStatsRebuild) {
  // The tentpole acceptance gate: an Append reaches ranked results
  // through the router's *delta* path — the stats-only catalog index
  // absorbs the df/length changes once, and the full-re-add counter
  // (the rebuild path Stores take) stays flat.
  BuildShards(3, 2);
  StoreCorpus(*router_);
  const int64_t full_adds_before = Count("router.stats_full_adds_total");
  const int64_t deltas_before = Count("router.stats_delta_applies_total");
  const uint64_t version_before = router_->catalog_version();
  EXPECT_TRUE(router_->QueryRanked({"avalanche"}, 5,
                                   QueryMode::kDisjunctive).empty());

  ObjectServer::AppendParts parts;
  parts.text = "avalanche avalanche rescue";
  auto version = router_->Append(3, parts);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);

  EXPECT_EQ(Count("router.stats_full_adds_total"), full_adds_before);
  EXPECT_EQ(Count("router.stats_delta_applies_total"), deltas_before + 1);
  EXPECT_GT(router_->catalog_version(), version_before);
  EXPECT_EQ(router_->corpus_stats().DocFreq("avalanche"), 1u);

  const std::vector<ScoredHit> hits =
      router_->QueryRanked({"avalanche"}, 5, QueryMode::kDisjunctive);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 3u);
}

TEST_F(RankedShardTest, AppendKeepsOneAndFourShardScoresIdentical) {
  // Post-append symmetry: the same corpus + the same appends must score
  // identically on a 1-shard and a 4-shard archive — the delta-synced
  // global statistics are what make the decomposition invisible.
  ObjectServer::AppendParts parts;
  parts.text = "fracture avalanche drill";

  BuildShards(1, 1);
  StoreCorpus(*router_);
  ASSERT_TRUE(router_->Append(2, parts).ok());
  const std::vector<ScoredHit> one =
      router_->QueryRanked({"fracture", "avalanche"}, 5,
                           QueryMode::kDisjunctive);

  BuildShards(4, 2);
  StoreCorpus(*router_);
  ASSERT_TRUE(router_->Append(2, parts).ok());
  const std::vector<ScoredHit> four =
      router_->QueryRanked({"fracture", "avalanche"}, 5,
                           QueryMode::kDisjunctive);

  ASSERT_EQ(one.size(), 4u);  // The distractor matches neither term.
  ASSERT_EQ(four.size(), 4u);
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(four[i].id, one[i].id) << "rank " << i;
    EXPECT_DOUBLE_EQ(four[i].score, one[i].score) << "rank " << i;
  }
}

TEST_F(RankedShardTest, ShardFaultDuringAppendLeavesGlobalStatsExact) {
  // One replica's device faults mid-append: the logical append still
  // succeeds on the surviving replica, the global stats absorb the
  // delta exactly once, and the lagging replica is flagged for repair
  // rather than silently diverging.
  BuildShards(2, 2);
  StoreCorpus(*router_);
  const uint64_t df_before = router_->corpus_stats().DocFreq("avalanche");
  ASSERT_EQ(df_before, 0u);

  stacks_[0]->device.SetWriteFaultHook(
      [](uint64_t, std::string*) { return Status::Unavailable("media"); });
  ObjectServer::AppendParts parts;
  parts.text = "avalanche avalanche";
  auto version = router_->Append(3, parts);
  stacks_[0]->device.SetWriteFaultHook(nullptr);

  ASSERT_TRUE(version.ok());
  EXPECT_EQ(router_->corpus_stats().DocFreq("avalanche"), 1u);
  const std::vector<ScoredHit> hits =
      router_->QueryRanked({"avalanche"}, 5, QueryMode::kDisjunctive);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 3u);
}

}  // namespace
}  // namespace minos::server
