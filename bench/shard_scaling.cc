// SHARD-1: does the sharded archive actually scale, and does it bend
// instead of breaking? Phase one runs the same content-query workload
// against 1..4 object-server shards behind the ShardRouter and reports
// scatter/gather throughput — the gate requires strictly more queries
// per second at every step up in shard count. Phase two kills one shard
// of a four-shard fabric mid-run (drop-everything fault injector, so its
// circuit breaker trips) and requires the surviving shards to keep
// serving complete query results with bounded latency, the prefetch
// pipeline to keep staging pages over the failover route, and the dead
// shard to rejoin after its breaker cooldown. Every gate runs even when
// an earlier one fails; the bench then exits 1 and lists each failed
// gate. A setup error (a refused Store) still exits at once.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "minos/core/visual_browser.h"
#include "minos/obs/metrics.h"
#include "minos/obs/trace.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/shard_router.h"
#include "minos/server/workstation.h"
#include "minos/storage/archiver.h"
#include "minos/storage/block_cache.h"
#include "minos/text/formatter.h"
#include "scenario_lib.h"

namespace minos {
namespace {

using storage::ObjectId;

/// One shard's full stack: its own archive device, cache, version store
/// and link, so per-shard faults and breakers stay independent.
struct ShardStack {
  explicit ShardStack(SimClock* clock)
      : device("shard", 65536, 512, storage::DeviceCostModel::OpticalDisk(),
               true, clock),
        // Generous per-shard cache: the bench measures routing and link
        // behaviour, not cache-thrash seek storms.
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
/// bench stores, so per-shard gather shares shrink exactly as 1/n.
server::ShardPlacement RoundRobin() {
  return [](ObjectId id, size_t shard_count) -> size_t {
    return static_cast<size_t>((id - 1) % shard_count);
  };
}

/// A report whose pages carry real transfer weight (the prefetch bench's
/// object shape): formatted text plus a bitmap on every other page.
object::MultimediaObject PagedObject(ObjectId id, int paragraphs) {
  object::MultimediaObject obj(id);
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 12;
  obj.SetTextPart(bench::LongReport(paragraphs)).ok();
  text::TextFormatter formatter(obj.descriptor().layout);
  const size_t pages = formatter.Paginate(obj.text_part()).value().size();
  for (size_t i = 0; i < pages; ++i) {
    object::VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    obj.descriptor().pages.push_back(page);
  }
  for (size_t i = 0; i < pages; i += 2) {
    const uint32_t index = obj.AddImage(bench::XrayBitmap(96, 72)).value();
    object::PlacedImage placed;
    placed.image_index = index;
    placed.placement = image::Rect{180, 20, 96, 72};
    obj.descriptor().pages[i].images.push_back(placed);
  }
  obj.Archive().ok();
  return obj;
}

/// A light text-only object for the throughput sweep.
object::MultimediaObject TextObject(ObjectId id) {
  object::MultimediaObject obj(id);
  obj.SetTextPart(bench::LongReport(2)).ok();
  object::VisualPageSpec page;
  page.text_page = 1;
  obj.descriptor().pages.push_back(page);
  obj.Archive().ok();
  return obj;
}

constexpr int kObjects = 24;
constexpr int kQueries = 12;

/// FNV-1a fold of one 64-bit value into a running digest.
uint64_t Mix(uint64_t digest, uint64_t value) {
  return (digest ^ value) * 0x100000001b3ULL;
}

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// One determinism-matrix run: a fresh four-shard fabric driven by a
/// pool of `workers` threads, running a fixed scatter + ranked workload.
/// Every field must be bit-identical across worker counts.
struct MatrixRun {
  Micros elapsed = 0;     ///< Virtual time the workload consumed.
  size_t cards = 0;       ///< Total cards gathered.
  uint64_t digest = 0;    ///< FNV fold of every id/byte_size/score.
  std::map<std::string, int64_t> counter_deltas;  ///< Registry deltas.
};

/// Counter values keyed by instance-normalized name: component metrics
/// carry a per-instance suffix ("link14.transfers"), and each matrix run
/// builds fresh instances, so digits are stripped ("link.transfers") and
/// same-family instances summed. The CI matrix diffs raw names — whole
/// runs allocate identical instance sequences — this normalization is
/// only for comparing topologies built back-to-back in one process.
std::map<std::string, int64_t> CounterValues() {
  std::map<std::string, int64_t> values;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Default().Snapshot().counters) {
    std::string normalized;
    for (const char c : name) {
      if (c < '0' || c > '9') normalized += c;
    }
    values[normalized] += value;
  }
  return values;
}

MatrixRun RunMatrixWorkload(int workers) {
  MatrixRun out;
  const std::map<std::string, int64_t> before = CounterValues();
  SimClock clock;
  std::vector<std::unique_ptr<ShardStack>> stacks;
  std::vector<server::ObjectServer*> servers;
  for (size_t i = 0; i < 4; ++i) {
    stacks.push_back(std::make_unique<ShardStack>(&clock));
    servers.push_back(&stacks.back()->server);
  }
  server::ShardRouter router(servers, &clock, RoundRobin(),
                             server::ShardRouterOptions{});
  runtime::TaskPool pool(&clock, workers);
  router.SetTaskPool(&pool);
  for (ObjectId id = 1; id <= kObjects; ++id) {
    if (!router.Store(TextObject(id)).ok()) std::abort();
  }
  for (int q = 0; q < 4; ++q) {
    const std::vector<server::MiniatureCard> got =
        router.GatherCards(router.QueryAll({"report"}));
    out.cards += got.size();
    for (const server::MiniatureCard& card : got) {
      out.digest = Mix(out.digest, card.id);
      out.digest = Mix(out.digest, card.byte_size);
      out.digest = Mix(out.digest, BitsOf(card.score));
    }
    const std::vector<query::ScoredHit> hits =
        router.QueryRanked({"report"}, 8);
    for (const query::ScoredHit& hit : hits) {
      out.digest = Mix(out.digest, hit.id);
      out.digest = Mix(out.digest, BitsOf(hit.score));
    }
  }
  out.elapsed = clock.Now();
  for (const auto& [name, value] : CounterValues()) {
    const auto it = before.find(name);
    const int64_t delta = value - (it != before.end() ? it->second : 0);
    if (delta != 0) out.counter_deltas[name] = delta;
  }
  return out;
}

/// Wall-clock seconds one scatter workload takes with `workers` threads:
/// a fresh fabric of paged (image-bearing) objects, so each per-shard
/// card task carries real decode/render CPU. Virtual elapsed time is
/// returned too — it must not vary with the worker count.
double TimeScatterWall(int workers, Micros* virtual_elapsed) {
  SimClock clock;
  std::vector<std::unique_ptr<ShardStack>> stacks;
  std::vector<server::ObjectServer*> servers;
  for (size_t i = 0; i < 4; ++i) {
    stacks.push_back(std::make_unique<ShardStack>(&clock));
    servers.push_back(&stacks.back()->server);
  }
  server::ShardRouter router(servers, &clock, RoundRobin(),
                             server::ShardRouterOptions{});
  runtime::TaskPool pool(&clock, workers);
  router.SetTaskPool(&pool);
  constexpr int kHeavyObjects = 16;
  for (ObjectId id = 1; id <= kHeavyObjects; ++id) {
    if (!router.Store(PagedObject(id, 8)).ok()) std::abort();
  }
  router.GatherCards(router.QueryAll({"report"}));  // Warm the caches.
  const Micros virtual_start = clock.Now();
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr int kRounds = 12;
  for (int q = 0; q < kRounds; ++q) {
    if (router.GatherCards(router.QueryAll({"report"})).size() !=
        kHeavyObjects) {
      std::abort();
    }
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  *virtual_elapsed = clock.Now() - virtual_start;
  return wall.count();
}

int Run() {
  bench::PrintHeader("shard_scaling",
                     "scatter/gather throughput vs shard count");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  Micros total_sim_time = 0;
  // A failing gate is recorded here and the bench goes on, so it never
  // hides the verdicts and gauges of the gates after it.
  std::vector<std::string> failed;

  // --- Phase 1: throughput sweep over shard counts ----------------------
  std::printf("%-8s %-12s %-12s %-10s\n", "shards", "query_ms", "qps",
              "cards");
  std::vector<double> qps_by_n;
  bool complete = true;  // Every sweep query gathered every card.
  for (size_t n = 1; n <= 4; ++n) {
    SimClock clock;
    std::vector<std::unique_ptr<ShardStack>> stacks;
    std::vector<server::ObjectServer*> servers;
    for (size_t i = 0; i < n; ++i) {
      stacks.push_back(std::make_unique<ShardStack>(&clock));
      servers.push_back(&stacks.back()->server);
    }
    server::ShardRouter router(servers, &clock, RoundRobin(),
                               server::ShardRouterOptions{});
    runtime::TaskPool pool(&clock, bench::Workers());
    router.SetTaskPool(&pool);
    for (ObjectId id = 1; id <= kObjects; ++id) {
      if (!router.Store(TextObject(id)).ok()) return 1;
    }

    const Micros sweep_start = clock.Now();
    size_t cards = 0;
    obs::Histogram* query_us = reg.histogram(
        "shard_scaling.shards_" + std::to_string(n) + ".query_us");
    for (int q = 0; q < kQueries; ++q) {
      const Micros start = clock.Now();
      cards = router.GatherCards(router.QueryAll({"report"})).size();
      if (cards != kObjects) {
        std::printf("FAIL: %zu-shard query returned %zu cards\n", n,
                    cards);
        complete = false;
      }
      query_us->Record(static_cast<double>(clock.Now() - start));
    }
    const Micros elapsed = clock.Now() - sweep_start;
    const double qps =
        kQueries / (static_cast<double>(elapsed) / 1000000.0);
    reg.gauge("shard_scaling.shards_" + std::to_string(n) + ".qps")
        ->Set(qps);
    qps_by_n.push_back(qps);
    std::printf("%-8zu %-12.1f %-12.2f %-10zu\n", n,
                static_cast<double>(elapsed) / kQueries / 1000.0, qps,
                cards);
    total_sim_time += clock.Now();
  }
  if (!complete) failed.push_back("1: complete sweep results");
  bool monotonic = true;
  for (size_t n = 1; n < qps_by_n.size(); ++n) {
    if (!(qps_by_n[n] > qps_by_n[n - 1])) {
      std::printf("FAIL: throughput is not monotonic: %zu shards %.2f qps "
                  "<= %zu shards %.2f qps\n",
                  n + 1, qps_by_n[n], n, qps_by_n[n - 1]);
      monotonic = false;
    }
  }
  if (monotonic) {
    std::printf("gate: throughput scales monotonically 1->4 shards\n");
  } else {
    failed.push_back("1: monotonic throughput");
  }

  // --- Phase 2: single-shard loss on a four-shard fabric ----------------
  // Paged objects give the prefetch pipeline pages to stage while one
  // shard of the fabric is dark.
  SimClock clock;
  std::vector<std::unique_ptr<ShardStack>> stacks;
  std::vector<server::ObjectServer*> servers;
  for (size_t i = 0; i < 4; ++i) {
    stacks.push_back(std::make_unique<ShardStack>(&clock));
    servers.push_back(&stacks.back()->server);
  }
  server::ShardRouter router(servers, &clock, RoundRobin(),
                             server::ShardRouterOptions{});
  runtime::TaskPool pool(&clock, bench::Workers());
  router.SetTaskPool(&pool);
  constexpr int kPagedObjects = 8;
  for (ObjectId id = 1; id <= kPagedObjects; ++id) {
    if (!router.Store(PagedObject(id, 10)).ok()) return 1;
  }

  // Every measured loss-phase query runs traced: a root span brackets
  // exactly the measured clock reads, so the trace's root durations sum
  // to the measured total and the TRACE snapshot gate reconciles.
  obs::Tracer tracer(&clock);
  router.SetTracer(&tracer);
  Micros traced_us = 0;

  auto run_queries = [&](int count) -> double {
    Micros sum = 0;
    for (int q = 0; q < count; ++q) {
      obs::TraceSpan root = tracer.StartSpan("bench.scatter_query");
      const Micros start = clock.Now();
      if (router.GatherCards(router.QueryAll({"report"}), root.context())
              .size() != kPagedObjects) {
        return -1.0;
      }
      sum += clock.Now() - start;
      root.End();
    }
    traced_us += sum;
    return static_cast<double>(sum) / count;
  };

  const double healthy_ms = run_queries(6) / 1000.0;
  if (healthy_ms < 0) {
    std::printf("FAIL: healthy 4-shard query lost cards\n");
    failed.push_back("2: healthy 4-shard results");
  }

  // Kill shard 0: every transfer drops, so its breaker trips open after
  // three consecutive failures and stays open for a long cooldown.
  server::CircuitBreaker::Options breaker;
  breaker.failure_threshold = 3;
  breaker.cooldown_us = SecondsToMicros(30);
  stacks[0]->link.ConfigureBreaker(breaker);
  server::FaultProfile dead;
  dead.drop_rate = 1.0;
  server::FaultInjector injector(dead, 0x5AD, &clock);
  stacks[0]->link.SetFaultInjector(&injector);

  const int64_t failovers_before =
      reg.counter("router.failovers_total")->value();
  const double tripping_ms = run_queries(1) / 1000.0;  // Trips the breaker.
  const double loss_ms = run_queries(5) / 1000.0;      // Steady-state loss.
  const size_t loss_failed_before = failed.size();
  if (tripping_ms < 0 || loss_ms < 0) {
    std::printf("FAIL: query lost cards during single-shard loss\n");
    failed.push_back("2: results during shard loss");
  }
  const int64_t failovers =
      reg.counter("router.failovers_total")->value() - failovers_before;
  std::printf("loss: healthy=%.1fms trip=%.1fms steady=%.1fms "
              "failovers=%lld live=%zu\n",
              healthy_ms, tripping_ms, loss_ms,
              static_cast<long long>(failovers), router.live_count());
  if (router.live_count() != 3 || failovers <= 0) {
    std::printf("FAIL: shard loss not visible in the routing table "
                "(live=%zu failovers=%lld)\n",
                router.live_count(), static_cast<long long>(failovers));
    failed.push_back("2: shard loss in the routing table");
  }
  if (!(loss_ms < 3.0 * healthy_ms)) {
    std::printf("FAIL: steady-state loss latency %.1fms is not bounded "
                "(healthy %.1fms)\n",
                loss_ms, healthy_ms);
    failed.push_back("2: bounded loss latency");
  }
  if (failed.size() == loss_failed_before) {
    std::printf("gate: one dead shard keeps serving, steady latency "
                "%.1fms < 3x healthy %.1fms\n",
                loss_ms, healthy_ms);
  }

  // Browse an object whose primary is the dead shard: the prefetch
  // pipeline must keep staging pages over the failover route.
  auto prefetch_lookups = [&reg]() -> int64_t {
    return reg.counter("prefetch.hits")->value() +
           reg.counter("prefetch.partial_hits")->value() +
           reg.counter("prefetch.misses")->value();
  };
  const int64_t prefetch_before = prefetch_lookups();
  render::Screen screen;
  server::Workstation workstation(&router, &screen, &clock);
  workstation.EnablePrefetch(server::PrefetchOptions{});
  workstation.SetTaskPool(&pool);
  core::VisualBrowser* vb = nullptr;
  if (!workstation.Present(1).ok()) {  // Primary of id 1 is dead shard 0.
    std::printf("FAIL: presenting a dead-primary object did not fail "
                "over to its replica\n");
    failed.push_back("3: dead-primary failover");
  } else {
    vb = workstation.presentation().visual_browser();
    if (vb == nullptr) return 1;
  }
  for (int i = 0; vb != nullptr && i < 4; ++i) {
    clock.Advance(MillisToMicros(120));  // The user reads the page.
    if (!vb->NextPage().ok()) break;
  }
  const int64_t prefetch_ops = prefetch_lookups() - prefetch_before;
  if (prefetch_ops <= 0) {
    std::printf("FAIL: prefetch pipeline idle during shard loss\n");
    failed.push_back("3: prefetch across failover");
  } else {
    std::printf("gate: prefetch stayed live across failover "
                "(%lld page lookups)\n",
                static_cast<long long>(prefetch_ops));
  }

  // Heal: faults stop, the cooldown elapses, and the next routed read
  // probes the half-open breaker back closed.
  stacks[0]->link.SetFaultInjector(nullptr);
  clock.Advance(breaker.cooldown_us + MillisToMicros(1));
  const size_t heal_failed_before = failed.size();
  if (run_queries(1) < 0) {
    std::printf("FAIL: query lost cards during heal probe\n");
    failed.push_back("4: results during the heal probe");
  }
  if (!router.IsLive(0) || router.live_count() != 4) {
    std::printf("FAIL: cooled-down shard did not rejoin (live=%zu)\n",
                router.live_count());
    failed.push_back("4: shard rejoin");
  }
  if (failed.size() == heal_failed_before) {
    std::printf("gate: dead shard healed after cooldown, live=%zu\n",
                router.live_count());
  }

  router.SetTracer(nullptr);
  Status trace_gate =
      bench::EmitTraceSnapshot("shard_scaling", tracer, traced_us);
  if (!trace_gate.ok()) {
    std::printf("FAIL: trace snapshot: %s\n",
                trace_gate.ToString().c_str());
    failed.push_back("5: trace reconciliation");
  }

  total_sim_time += clock.Now();

  // --- Phase 3: worker-count determinism matrix -------------------------
  // The same seed and workload on pools of 1, 2 and 4 workers must
  // produce bit-identical results: virtual elapsed time, gathered card
  // digests, ranked ids/scores, and every registry counter delta. This
  // is the in-process half of the CI determinism-matrix gate (the other
  // half diffs whole BENCH_*.json files across --workers runs).
  {
    const MatrixRun base = RunMatrixWorkload(1);
    total_sim_time += base.elapsed;
    bool identical = true;
    for (int workers : {2, 4}) {
      const MatrixRun run = RunMatrixWorkload(workers);
      total_sim_time += run.elapsed;
      if (run.elapsed != base.elapsed || run.cards != base.cards ||
          run.digest != base.digest ||
          run.counter_deltas != base.counter_deltas) {
        std::printf("FAIL: %d-worker run diverges from 1-worker run "
                    "(elapsed %lld vs %lld, cards %zu vs %zu, digest "
                    "%016llx vs %016llx, %zu vs %zu counter deltas)\n",
                    workers, static_cast<long long>(run.elapsed),
                    static_cast<long long>(base.elapsed), run.cards,
                    base.cards,
                    static_cast<unsigned long long>(run.digest),
                    static_cast<unsigned long long>(base.digest),
                    run.counter_deltas.size(),
                    base.counter_deltas.size());
        for (const auto& [name, delta] : base.counter_deltas) {
          const auto it = run.counter_deltas.find(name);
          const int64_t other =
              it != run.counter_deltas.end() ? it->second : 0;
          if (other != delta) {
            std::printf("  %s: 1-worker %lld vs %d-worker %lld\n",
                        name.c_str(), static_cast<long long>(delta),
                        workers, static_cast<long long>(other));
          }
        }
        for (const auto& [name, delta] : run.counter_deltas) {
          if (base.counter_deltas.find(name) ==
              base.counter_deltas.end()) {
            std::printf("  %s: 1-worker 0 vs %d-worker %lld\n",
                        name.c_str(), workers,
                        static_cast<long long>(delta));
          }
        }
        identical = false;
      }
    }
    if (identical) {
      std::printf("gate: workers {1,2,4} produce bit-identical results "
                  "(digest %016llx, %zu counter deltas)\n",
                  static_cast<unsigned long long>(base.digest),
                  base.counter_deltas.size());
    } else {
      failed.push_back("6: worker-count determinism");
    }
  }

  // --- Phase 4: wall-clock speedup curve --------------------------------
  // Real threads must buy real throughput. Wall time is inherently
  // schedule-dependent, so it stays on stdout (never in the registry),
  // and the >=1.8x gate only arms on machines with at least four
  // hardware cores — elsewhere the curve is reported but advisory.
  {
    double wall[3] = {0, 0, 0};
    Micros virtual_us[3] = {0, 0, 0};
    const int counts[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
      double best = -1.0;
      for (int rep = 0; rep < 3; ++rep) {
        Micros virt = 0;
        const double seconds = TimeScatterWall(counts[i], &virt);
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
      failed.push_back("7: virtual time across worker counts");
    }
    if (std::thread::hardware_concurrency() >= 4) {
      if (!(speedup4 >= 1.8) || !(speedup2 >= 1.0)) {
        std::printf("FAIL: speedup curve not monotonic >=1.8x at 4 "
                    "workers (2w %.2fx, 4w %.2fx)\n",
                    speedup2, speedup4);
        failed.push_back("8: wall speedup");
      } else {
        std::printf("gate: 4-worker scatter is %.2fx the 1-worker wall "
                    "time\n", speedup4);
      }
    } else {
      std::printf("gate: speedup advisory only (%u hardware threads "
                  "< 4)\n", std::thread::hardware_concurrency());
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
