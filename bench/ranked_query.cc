// RANK-1: is ranked retrieval worth its scoring cost, and is the
// scatter merge exact? The corpus spreads the genuinely relevant
// documents (heavy term frequency) across the id space while many
// low-relevance documents mention the query term once near the front of
// the id range — the shape where the unranked id-order strip shows the
// user mostly noise. Every gate runs even when an earlier one fails;
// the bench then exits 1 and lists each failed gate. The first three:
//
//   1. Quality: precision@10 of the ranked strip strictly beats the
//      id-order strip against the planted ground truth.
//   2. Cost: the ranked 4-shard top-10 gather (scoring + scatter card
//      fetch) stays within 1.5x the unranked id-order path fetching the
//      same ten cards.
//   3. Symmetry: a 1-shard and a 4-shard archive of the same corpus
//      return identical ids and identical scores.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "minos/obs/metrics.h"
#include "minos/query/scored_index.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/shard_router.h"
#include "minos/text/markup.h"
#include "minos/util/random.h"
#include "scenario_lib.h"

namespace minos {
namespace {

using storage::ObjectId;

struct ShardStack {
  explicit ShardStack(SimClock* clock)
      : device("shard", 65536, 512,
               storage::DeviceCostModel::OpticalDisk(), true, clock),
        cache(1024),
        archiver(&device, &cache),
        link(server::Link::Ethernet(clock)),
        server(&archiver, &versions, clock, &link) {}

  storage::BlockDevice device;
  storage::BlockCache cache;
  storage::Archiver archiver;
  storage::VersionStore versions;
  server::Link link;
  server::ObjectServer server;
};

/// Round-robin placement: perfect balance for the dense id range the
/// bench stores.
server::ShardPlacement RoundRobin() {
  return [](ObjectId id, size_t shard_count) -> size_t {
    return static_cast<size_t>((id - 1) % shard_count);
  };
}

constexpr int kObjects = 40;
constexpr size_t kTopK = 10;

bool Relevant(ObjectId id) { return id % 4 == 0; }  // 4, 8, ..., 40.

object::MultimediaObject CorpusObject(ObjectId id) {
  object::MultimediaObject obj(id);
  std::string body;
  if (Relevant(id)) {
    // The documents actually about fractures: heavy term mass.
    body = "fracture fracture fracture fracture fracture treatment "
           "protocol for the orthopedic ward";
  } else {
    // Passing mentions drowned in filler — early ids crowd the
    // id-order strip without deserving it.
    body = "administrative memo which notes a fracture case among many "
           "unrelated scheduling budget staffing and inventory matters "
           "for the quarter";
  }
  text::MarkupParser parser;
  auto doc = parser.Parse(".PP\n" + body + "\n");
  if (!doc.ok()) std::abort();
  if (!obj.SetTextPart(std::move(doc).value()).ok()) std::abort();
  object::VisualPageSpec page;
  page.text_page = 1;
  obj.descriptor().pages.push_back(page);
  if (!obj.Archive().ok()) std::abort();
  return obj;
}

struct Topology {
  SimClock clock;
  std::vector<std::unique_ptr<ShardStack>> stacks;
  std::unique_ptr<server::ShardRouter> router;
  std::unique_ptr<runtime::TaskPool> pool;
};

std::unique_ptr<Topology> BuildTopology(size_t shards, int workers) {
  auto topo = std::make_unique<Topology>();
  std::vector<server::ObjectServer*> servers;
  for (size_t i = 0; i < shards; ++i) {
    topo->stacks.push_back(std::make_unique<ShardStack>(&topo->clock));
    servers.push_back(&topo->stacks.back()->server);
  }
  server::ShardRouterOptions options;
  options.replication = 2;
  topo->router = std::make_unique<server::ShardRouter>(
      servers, &topo->clock, RoundRobin(), options);
  topo->pool = std::make_unique<runtime::TaskPool>(&topo->clock, workers);
  topo->router->SetTaskPool(topo->pool.get());
  for (ObjectId id = 1; id <= kObjects; ++id) {
    if (!topo->router->Store(CorpusObject(id)).ok()) std::abort();
  }
  return topo;
}

double Precision(const std::vector<ObjectId>& ids) {
  size_t hits = 0;
  for (ObjectId id : ids) {
    if (Relevant(id)) ++hits;
  }
  return ids.empty() ? 0.0
                     : static_cast<double>(hits) /
                           static_cast<double>(ids.size());
}

/// The ranked strip: the top-k hits, then their cards in rank order.
std::vector<server::MiniatureCard> RankedStrip(
    server::ObjectStore& store, const std::vector<std::string>& words,
    const obs::TraceContext& ctx = {}) {
  std::vector<ObjectId> ids;
  for (const query::ScoredHit& hit : store.QueryRanked(
           words, kTopK, query::QueryMode::kConjunctive, ctx)) {
    ids.push_back(hit.id);
  }
  return store.GatherCards(ids, ctx);
}

int Run() {
  bench::PrintHeader("ranked_query",
                     "ranked top-k scatter/gather vs id-order browsing");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::vector<std::string> query{"fracture"};

  std::unique_ptr<Topology> four = BuildTopology(4, bench::Workers());
  server::ShardRouter& router = *four->router;
  SimClock& clock = four->clock;
  // A failing gate is recorded here and the bench goes on, so it never
  // hides the verdicts and gauges of the gates after it. A setup error
  // (a refused Store, fetch or Append) still exits at once.
  std::vector<std::string> failed;

  // --- Gate 1: precision@10, ranked vs id order ------------------------
  const std::vector<query::ScoredHit> ranked =
      router.QueryRanked(query, kTopK);
  std::vector<ObjectId> ranked_ids;
  for (const query::ScoredHit& hit : ranked) ranked_ids.push_back(hit.id);
  std::vector<ObjectId> id_order = router.QueryAll(query);
  if (id_order.size() > kTopK) id_order.resize(kTopK);

  const double p_ranked = Precision(ranked_ids);
  const double p_id = Precision(id_order);
  reg.gauge("ranked_query.precision_ranked")->Set(p_ranked);
  reg.gauge("ranked_query.precision_id_order")->Set(p_id);
  std::printf("precision@%zu: ranked=%.2f id_order=%.2f\n", kTopK,
              p_ranked, p_id);
  if (!(p_ranked > p_id)) {
    std::printf("FAIL: ranked precision %.2f does not beat id order "
                "%.2f\n",
                p_ranked, p_id);
    failed.push_back("1: precision");
  } else {
    std::printf("gate: ranked strip is more relevant than the id-order "
                "strip\n");
  }

  // --- Gate 2: top-10 card latency, ranked vs id order -----------------
  // Both paths deliver exactly kTopK miniature cards; the ranked one
  // pays scoring and the scatter merge on top.
  constexpr int kRounds = 8;
  Micros unranked_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Micros start = clock.Now();
    const std::vector<ObjectId> matches = router.QueryAll(query);
    size_t fetched = 0;
    for (ObjectId id : matches) {
      if (fetched == kTopK) break;
      if (!router.FetchMiniature(id).ok()) return 1;
      ++fetched;
    }
    if (fetched != kTopK) return 1;
    unranked_total += clock.Now() - start;
  }
  // The ranked rounds run traced: each round roots one span that
  // brackets exactly the measured clock reads, and the router threads
  // its context through the scatter, so the TRACE json reconciles with
  // ranked_total by construction.
  obs::Tracer tracer(&clock);
  router.SetTracer(&tracer);
  Micros ranked_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    obs::TraceSpan root = tracer.StartSpan("bench.ranked_gather");
    const Micros start = clock.Now();
    const size_t cards = RankedStrip(router, query, root.context()).size();
    if (cards != kTopK) {
      std::printf("FAIL: ranked gather returned %zu cards\n", cards);
      return 1;
    }
    ranked_total += clock.Now() - start;
    root.End();
  }
  router.SetTracer(nullptr);
  Status trace_gate =
      bench::EmitTraceSnapshot("ranked_query", tracer, ranked_total);
  if (!trace_gate.ok()) {
    std::printf("FAIL: %s\n", trace_gate.ToString().c_str());
    failed.push_back("2: trace reconciliation");
  }
  const double unranked_ms =
      static_cast<double>(unranked_total) / kRounds / 1000.0;
  const double ranked_ms =
      static_cast<double>(ranked_total) / kRounds / 1000.0;
  const double ratio = ranked_ms / unranked_ms;
  reg.gauge("ranked_query.unranked_ms")->Set(unranked_ms);
  reg.gauge("ranked_query.ranked_ms")->Set(ranked_ms);
  reg.gauge("ranked_query.latency_ratio")->Set(ratio);
  std::printf("top-%zu cards: id_order=%.2fms ranked=%.2fms "
              "ratio=%.2f\n",
              kTopK, unranked_ms, ranked_ms, ratio);
  if (!(ratio <= 1.5)) {
    std::printf("FAIL: ranked latency ratio %.2f exceeds 1.5x\n", ratio);
    failed.push_back("2: latency ratio");
  } else {
    std::printf("gate: ranked top-%zu stays within 1.5x of id-order\n",
                kTopK);
  }

  // --- Gate 3: 1-shard vs 4-shard identity -----------------------------
  std::unique_ptr<Topology> one = BuildTopology(1, bench::Workers());
  const std::vector<query::ScoredHit> single =
      one->router->QueryRanked(query, kTopK);
  bool identical = single.size() == ranked.size();
  if (!identical) {
    std::printf("FAIL: 1-shard returned %zu hits, 4-shard %zu\n",
                single.size(), ranked.size());
  }
  for (size_t i = 0; identical && i < single.size(); ++i) {
    if (single[i].id != ranked[i].id ||
        single[i].score != ranked[i].score) {
      std::printf("FAIL: rank %zu diverges: 1-shard (%llu, %.6f) vs "
                  "4-shard (%llu, %.6f)\n",
                  i, static_cast<unsigned long long>(single[i].id),
                  single[i].score,
                  static_cast<unsigned long long>(ranked[i].id),
                  ranked[i].score);
      identical = false;
    }
  }
  if (identical) {
    std::printf("gate: 1-shard and 4-shard ranked results are "
                "identical\n");
  } else {
    failed.push_back("3: 1-shard vs 4-shard identity");
  }
  Micros total_sim_time = four->clock.Now() + one->clock.Now();

  // --- Gate 4: worker-count determinism --------------------------------
  // Fresh 4-shard topologies driven by pools of 1, 2 and 4 workers must
  // return bit-identical ranked ids and scores, burn identical virtual
  // time, and move every registry counter by the same delta. This is
  // the in-process half of the CI determinism-matrix gate.
  {
    // Instance-normalized counter values: component metrics carry a
    // per-instance suffix ("link14.transfers") and each matrix run
    // builds fresh instances, so digits are stripped and same-family
    // instances summed before comparing.
    auto counter_values = [&reg]() {
      std::map<std::string, int64_t> values;
      for (const auto& [name, value] : reg.Snapshot().counters) {
        std::string normalized;
        for (const char c : name) {
          if (c < '0' || c > '9') normalized += c;
        }
        values[normalized] += value;
      }
      return values;
    };
    struct MatrixRun {
      Micros elapsed = 0;
      std::vector<query::ScoredHit> hits;
      std::map<std::string, int64_t> counter_deltas;
    };
    auto run_matrix = [&](int workers) -> MatrixRun {
      MatrixRun out;
      const std::map<std::string, int64_t> before = counter_values();
      std::unique_ptr<Topology> topo = BuildTopology(4, workers);
      for (int round = 0; round < 4; ++round) {
        out.hits = topo->router->QueryRanked(query, kTopK);
        if (RankedStrip(*topo->router, query).size() != kTopK) std::abort();
      }
      out.elapsed = topo->clock.Now();
      for (const auto& [name, value] : counter_values()) {
        const auto it = before.find(name);
        const int64_t delta =
            value - (it != before.end() ? it->second : 0);
        if (delta != 0) out.counter_deltas[name] = delta;
      }
      return out;
    };
    const MatrixRun base = run_matrix(1);
    total_sim_time += base.elapsed;
    bool deterministic = true;
    for (int workers : {2, 4}) {
      const MatrixRun run = run_matrix(workers);
      total_sim_time += run.elapsed;
      bool hits_equal = run.hits.size() == base.hits.size();
      for (size_t i = 0; hits_equal && i < run.hits.size(); ++i) {
        hits_equal = run.hits[i].id == base.hits[i].id &&
                     run.hits[i].score == base.hits[i].score;
      }
      if (!hits_equal || run.elapsed != base.elapsed ||
          run.counter_deltas != base.counter_deltas) {
        std::printf("FAIL: %d-worker run diverges from 1-worker run "
                    "(hits_equal=%d elapsed %lld vs %lld, %zu vs %zu "
                    "counter deltas)\n",
                    workers, hits_equal ? 1 : 0,
                    static_cast<long long>(run.elapsed),
                    static_cast<long long>(base.elapsed),
                    run.counter_deltas.size(),
                    base.counter_deltas.size());
        deterministic = false;
      }
    }
    if (deterministic) {
      std::printf("gate: workers {1,2,4} return identical top-%zu "
                  "ids/scores and counter deltas\n", kTopK);
    } else {
      failed.push_back("4: worker-count determinism");
    }
  }

  // --- Gate 5: wall-clock speedup curve --------------------------------
  // Wall time is schedule-dependent, so the curve stays on stdout and
  // the >=1.8x gate only arms with four or more hardware cores.
  {
    auto time_ranked_wall = [&](int workers, Micros* virt) -> double {
      std::unique_ptr<Topology> topo = BuildTopology(4, workers);
      RankedStrip(*topo->router, query);  // Warm caches.
      const Micros virtual_start = topo->clock.Now();
      const auto wall_start = std::chrono::steady_clock::now();
      constexpr int kSpeedupRounds = 24;
      for (int round = 0; round < kSpeedupRounds; ++round) {
        if (RankedStrip(*topo->router, query).size() != kTopK) std::abort();
      }
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - wall_start;
      *virt = topo->clock.Now() - virtual_start;
      return wall.count();
    };
    double wall[3] = {0, 0, 0};
    Micros virtual_us[3] = {0, 0, 0};
    const int counts[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
      double best = -1.0;
      for (int rep = 0; rep < 3; ++rep) {
        Micros virt = 0;
        const double seconds = time_ranked_wall(counts[i], &virt);
        if (best < 0 || seconds < best) best = seconds;
        virtual_us[i] = virt;
      }
      wall[i] = best;
      total_sim_time += virtual_us[i];
    }
    const double speedup2 = wall[0] / wall[1];
    const double speedup4 = wall[0] / wall[2];
    std::printf("speedup: workers 1=%.1fms 2=%.1fms (%.2fx) 4=%.1fms "
                "(%.2fx)\n",
                wall[0] * 1000.0, wall[1] * 1000.0, speedup2,
                wall[2] * 1000.0, speedup4);
    if (virtual_us[1] != virtual_us[0] || virtual_us[2] != virtual_us[0]) {
      std::printf("FAIL: virtual elapsed time varies with worker count "
                  "(%lld/%lld/%lld us)\n",
                  static_cast<long long>(virtual_us[0]),
                  static_cast<long long>(virtual_us[1]),
                  static_cast<long long>(virtual_us[2]));
      failed.push_back("5: virtual time across worker counts");
    }
    if (std::thread::hardware_concurrency() >= 4) {
      if (!(speedup4 >= 1.8) || !(speedup2 >= 1.0)) {
        std::printf("FAIL: speedup curve not monotonic >=1.8x at 4 "
                    "workers (2w %.2fx, 4w %.2fx)\n",
                    speedup2, speedup4);
        failed.push_back("5: wall speedup");
      } else {
        std::printf("gate: 4-worker ranked gather is %.2fx the 1-worker "
                    "wall time\n", speedup4);
      }
    } else {
      std::printf("gate: speedup advisory only (%u hardware threads "
                  "< 4)\n", std::thread::hardware_concurrency());
    }
  }

  // --- Gate 6: catalog scale — pruned top-k is sublinear ---------------
  // 10k- and 100k-object catalogs built through the incremental Append
  // path (the same seed stream, so the small catalog is a prefix of the
  // large one). Two gates: the pruned scorer visits under half the
  // postings exhaustive scoring charges at 100k, and its per-query
  // scoring cost grows sublinearly in catalog size.
  {
    auto build_catalog = [](size_t docs, query::ScoredIndex* index) {
      Random rng(1986);
      constexpr size_t kVocab = 800;
      for (ObjectId id = 1; id <= docs; ++id) {
        query::AppendedContent content;
        const size_t words = 6 + rng.Uniform(18);
        for (size_t w = 0; w < words; ++w) {
          // Squared-uniform skew: low word indexes are ubiquitous, the
          // tail is rare — the shape that gives idf and the max-score
          // bounds their spread.
          const size_t pick =
              (rng.Uniform(kVocab) * rng.Uniform(kVocab)) / kVocab;
          content.text += 'w';
          content.text += std::to_string(pick);
          content.text += ' ';
        }
        index->Append(id, content, 0.0);
      }
    };
    const query::QueryEngine pruned_engine(
        {}, query::ScoringStrategy::kMaxScore);
    const query::QueryEngine exhaustive_engine(
        {}, query::ScoringStrategy::kExhaustive);
    // A common head term plus two selective tail terms: the selective
    // evidence saturates the heap and the head list stops generating.
    const std::vector<std::string> scale_query{"w2", "w431", "w797"};
    struct ScalePoint {
      size_t docs;
      Micros cost = 0;
      size_t scanned = 0;
      size_t exhaustive_scanned = 0;
    };
    ScalePoint points[2] = {{10000}, {100000}};
    const size_t failed_before = failed.size();
    for (ScalePoint& point : points) {
      query::ScoredIndex index;
      build_catalog(point.docs, &index);
      const query::RankedQuery exact = exhaustive_engine.TopK(
          index, index, scale_query, kTopK, query::QueryMode::kDisjunctive);
      const query::RankedQuery fast = pruned_engine.TopK(
          index, index, scale_query, kTopK, query::QueryMode::kDisjunctive);
      bool exact_hits = fast.hits.size() == exact.hits.size();
      if (!exact_hits) {
        std::printf("FAIL: %zu-doc pruned top-%zu returned %zu hits, "
                    "exhaustive %zu\n",
                    point.docs, kTopK, fast.hits.size(),
                    exact.hits.size());
      }
      for (size_t i = 0; exact_hits && i < fast.hits.size(); ++i) {
        if (fast.hits[i].id != exact.hits[i].id ||
            fast.hits[i].score != exact.hits[i].score) {
          std::printf("FAIL: %zu-doc rank %zu diverges: pruned "
                      "(%llu, %.9f) vs exhaustive (%llu, %.9f)\n",
                      point.docs, i,
                      static_cast<unsigned long long>(fast.hits[i].id),
                      fast.hits[i].score,
                      static_cast<unsigned long long>(exact.hits[i].id),
                      exact.hits[i].score);
          exact_hits = false;
        }
      }
      if (!exact_hits) failed.push_back("6: pruned top-k exactness");
      point.scanned = fast.postings_scanned;
      point.exhaustive_scanned = exact.postings_scanned;
      point.cost =
          query::ScoringCost(fast.terms_scored, fast.postings_scanned);
      std::printf("scale %6zu docs: scanned=%zu skipped=%zu "
                  "exhaustive=%zu cost=%lldus\n",
                  point.docs, fast.postings_scanned,
                  fast.postings_skipped, exact.postings_scanned,
                  static_cast<long long>(point.cost));
    }
    const double visit_fraction =
        static_cast<double>(points[1].scanned) /
        static_cast<double>(points[1].exhaustive_scanned);
    const double catalog_growth = static_cast<double>(points[1].docs) /
                                  static_cast<double>(points[0].docs);
    const double cost_growth = (static_cast<double>(points[1].cost) /
                                static_cast<double>(points[0].cost)) /
                               catalog_growth;
    reg.gauge("ranked_query.scale_scanned_small")
        ->Set(static_cast<double>(points[0].scanned));
    reg.gauge("ranked_query.scale_scanned_large")
        ->Set(static_cast<double>(points[1].scanned));
    reg.gauge("ranked_query.scale_exhaustive_scanned_large")
        ->Set(static_cast<double>(points[1].exhaustive_scanned));
    reg.gauge("ranked_query.scale_pruned_visit_fraction")
        ->Set(visit_fraction);
    reg.gauge("ranked_query.scale_cost_growth")->Set(cost_growth);
    std::printf("catalog_scale: visit_fraction=%.3f cost_growth=%.3f "
                "(1.0 = linear in catalog size)\n",
                visit_fraction, cost_growth);
    if (!(visit_fraction < 0.5)) {
      std::printf("FAIL: pruned scan visits %.0f%% of exhaustive at "
                  "100k docs (need < 50%%)\n", visit_fraction * 100.0);
      failed.push_back("6: visit fraction");
    }
    if (!(cost_growth < 1.0)) {
      std::printf("FAIL: per-query scoring cost grew %.2fx relative to "
                  "catalog size (need sublinear)\n", cost_growth);
      failed.push_back("6: sublinear cost");
    }
    if (failed.size() == failed_before) {
      std::printf("gate: 100k-object top-%zu visits %.0f%% of exhaustive "
                  "postings and scales sublinearly\n",
                  kTopK, visit_fraction * 100.0);
    }
  }

  // --- Gate 7: Append reaches ranked results via the delta path --------
  // An append on the live 4-shard topology must surface in ranked
  // results through the router's stats *delta* sync: the full-re-add
  // counter (the Store-time rebuild path) stays flat.
  {
    const int64_t full_before =
        reg.counter("router.stats_full_adds_total")->value();
    const int64_t delta_before =
        reg.counter("router.stats_delta_applies_total")->value();
    server::ObjectServer::AppendParts parts;
    parts.text = "avulsion avulsion avulsion consult";
    if (!router.Append(4, parts).ok()) {
      std::printf("FAIL: router Append refused\n");
      return 1;
    }
    const std::vector<query::ScoredHit> appended = router.QueryRanked(
        {"avulsion"}, kTopK, query::QueryMode::kDisjunctive);
    const int64_t full_adds =
        reg.counter("router.stats_full_adds_total")->value() - full_before;
    const int64_t delta_applies =
        reg.counter("router.stats_delta_applies_total")->value() -
        delta_before;
    reg.gauge("ranked_query.append_stats_full_adds")
        ->Set(static_cast<double>(full_adds));
    reg.gauge("ranked_query.append_stats_delta_applies")
        ->Set(static_cast<double>(delta_applies));
    const size_t failed_before = failed.size();
    if (appended.size() != 1 || appended[0].id != 4) {
      std::printf("FAIL: appended term did not surface in ranked "
                  "results (%zu hits)\n", appended.size());
      failed.push_back("7: append visible to ranked queries");
    }
    if (full_adds != 0 || delta_applies != 1) {
      std::printf("FAIL: append took the rebuild path (full_adds=%lld, "
                  "delta_applies=%lld; want 0 and 1)\n",
                  static_cast<long long>(full_adds),
                  static_cast<long long>(delta_applies));
      failed.push_back("7: stats delta path");
    }
    if (failed.size() == failed_before) {
      std::printf("gate: Append surfaces in ranked results via one stats "
                  "delta, zero rebuilds\n");
    }
  }

  bench::NoteSimTime(total_sim_time);
  if (!failed.empty()) {
    std::printf("FAILED %zu gate(s):\n", failed.size());
    for (const std::string& gate : failed) {
      std::printf("  gate %s\n", gate.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace minos

int main(int argc, char** argv) {
  minos::bench::ParseWorkers(argc, argv);
  return minos::Run();
}
