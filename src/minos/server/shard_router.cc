#include "minos/server/shard_router.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <utility>

#include "minos/runtime/task_pool.h"
#include "minos/server/link.h"

namespace minos::server {

using object::MultimediaObject;
using storage::ArchiveAddress;
using storage::ObjectId;

ShardPlacement HashPlacement() {
  return [](ObjectId id, size_t shard_count) -> size_t {
    // Fibonacci multiplicative hash: golden-ratio constant scrambles
    // consecutive ids before the mod, so dense id ranges still spread.
    const uint64_t mixed = (id * 0x9E3779B97F4A7C15ull) >> 17;
    return static_cast<size_t>(mixed % shard_count);
  };
}

ShardPlacement RangePlacement(uint64_t ids_per_shard) {
  return [ids_per_shard](ObjectId id, size_t shard_count) -> size_t {
    const uint64_t slot = ids_per_shard > 0 ? id / ids_per_shard : 0;
    return static_cast<size_t>(
        std::min<uint64_t>(slot, shard_count - 1));
  };
}

ShardRouter::ShardRouter(std::vector<ObjectServer*> shards, SimClock* clock,
                         ShardPlacement placement, ShardRouterOptions options)
    : shards_(std::move(shards)),
      clock_(clock),
      placement_(std::move(placement)),
      options_(options),
      active_count_(shards_.size()),
      live_(shards_.size(), true),
      inline_pool_(clock, /*workers=*/0) {
  assert(!shards_.empty());
  options_.replication =
      std::clamp<int>(options_.replication, 1,
                      static_cast<int>(shards_.size()));
  reg_ = options_.registry != nullptr ? options_.registry
                                      : &obs::MetricsRegistry::Default();
  obs::MetricsRegistry& reg = *reg_;
  scatter_queries_ = reg.counter("router.scatter_queries");
  ranked_scatters_ = reg.counter("query.ranked_scatters");
  merge_depth_ = reg.histogram("query.merge_depth");
  failovers_ = reg.counter("router.failovers_total");
  shards_lost_ = reg.counter("router.shards_lost_total");
  shards_healed_ = reg.counter("router.shards_healed_total");
  rebalances_ = reg.counter("router.rebalances_total");
  dropped_results_ = reg.counter("router.dropped_results_total");
  replica_store_errors_ = reg.counter("router.replica_store_errors_total");
  degraded_stores_ = reg.counter("router.degraded_stores_total");
  stats_full_adds_ = reg.counter("router.stats_full_adds_total");
  stats_delta_applies_ = reg.counter("router.stats_delta_applies_total");
  live_shards_ = reg.gauge("router.live_shards");
  under_replicated_g_ = reg.gauge("router.under_replicated");
  epoch_g_ = reg.gauge("router.routing_epoch");
  gather_us_ = reg.histogram("router.gather_us");
  live_shards_->Set(static_cast<double>(shards_.size()));
  epoch_g_->Set(static_cast<double>(routing_epoch_));
  red_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string scope = "router.shard" + std::to_string(i);
    red_.push_back(ShardRed{reg.counter(scope + ".requests_total"),
                            reg.counter(scope + ".errors_total"),
                            reg.histogram(scope + ".duration_us")});
  }
}

void ShardRouter::SetTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  pool_->SetTracer(tracer);
  for (ObjectServer* shard : shards_) {
    shard->SetTracer(tracer);
  }
}

void ShardRouter::SetTaskPool(runtime::TaskPool* pool) {
  pool_ = pool != nullptr ? pool : &inline_pool_;
  // The pool buffers every span a scatter share records, so it needs
  // the same tracer the fabric reports to.
  if (tracer_ != nullptr) pool_->SetTracer(tracer_);
  for (ObjectServer* shard : shards_) {
    shard->SetTaskPool(pool);
  }
}

void ShardRouter::RefreshLiveness() const {
  // A pool task never mutates the routing table: the submitting thread
  // refreshed it before the epoch, and every share of one scatter must
  // route against that single pinned table (also, live_ is a
  // vector<bool> — concurrent writes would race).
  if (runtime::TaskPool::InTask()) return;
  size_t live = 0;
  std::vector<size_t> healed;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Link* link = shards_[i]->link();
    // No link means no breaker signal: the shard is local and always
    // reachable. An open breaker is shard loss — except once its
    // cooldown has elapsed, when the shard is routable again so the
    // next read performs the half-open probe that can heal it.
    const bool eligible =
        link == nullptr ||
        link->breaker().state() != CircuitBreaker::State::kOpen ||
        link->breaker().CooldownElapsed();
    if (eligible && !live_[i]) {
      shards_healed_->Increment();
      rebalances_->Increment();
      ++routing_epoch_;
      healed.push_back(i);
    } else if (!eligible && live_[i]) {
      shards_lost_->Increment();
      rebalances_->Increment();
      ++routing_epoch_;
    }
    live_[i] = eligible;
    if (eligible && i < active_count_) ++live;
  }
  live_shards_->Set(static_cast<double>(live));
  epoch_g_->Set(static_cast<double>(routing_epoch_));
  // Heal events fire after the whole liveness vector settles, so a
  // listener that inspects the router sees the post-heal picture. The
  // listener contract forbids repairing inline; it only flags work.
  if (heal_listener_) {
    for (size_t shard : healed) heal_listener_(shard);
  }
}

bool ShardRouter::IsLive(size_t shard) const {
  RefreshLiveness();
  return shard < live_.size() && live_[shard];
}

size_t ShardRouter::live_count() const {
  RefreshLiveness();
  size_t n = 0;
  for (bool b : live_) {
    if (b) ++n;
  }
  return n;
}

std::vector<size_t> ShardRouter::ReplicaChain(ObjectId id) const {
  return ReplicaChainUnder(id, active_count_);
}

std::vector<size_t> ShardRouter::ReplicaChainUnder(
    ObjectId id, size_t shard_count) const {
  std::vector<size_t> chain;
  const size_t primary = placement_(id, shard_count);
  const int replicas =
      std::min(options_.replication, static_cast<int>(shard_count));
  for (int r = 0; r < replicas; ++r) {
    chain.push_back((primary + static_cast<size_t>(r)) % shard_count);
  }
  return chain;
}

template <typename T>
StatusOr<T> ShardRouter::RouteRead(
    ObjectId id,
    const std::function<StatusOr<T>(ObjectServer*,
                                    const obs::TraceContext&)>& op,
    const obs::TraceContext& ctx) const {
  RefreshLiveness();
  Status last = Status::Unavailable(
      "no live replica serves object " + std::to_string(id));
  const std::vector<size_t> chain = ReplicaChain(id);
  for (size_t shard : chain) {
    if (!live_[shard]) continue;
    // Any routing away from the primary — whether the primary was
    // skipped dead or just failed the attempt — is a failover.
    if (shard != chain.front()) failovers_->Increment();
    std::optional<obs::TraceSpan> span =
        obs::MaybeStartSpan(tracer_, "router.attempt", ctx);
    if (span.has_value()) span->AddTag("shard", static_cast<int64_t>(shard));
    const Micros start = clock_->Now();
    StatusOr<T> got = op(shards_[shard], obs::ContextOf(span));
    red_[shard].requests->Increment();
    red_[shard].duration_us->Record(
        static_cast<double>(clock_->Now() - start));
    if (got.ok()) {
      if (span.has_value()) span->AddTag("outcome", "ok");
      return got;
    }
    red_[shard].errors->Increment();
    if (!IsRetryable(got.status())) {
      if (span.has_value()) span->AddTag("outcome", "error");
      return got;
    }
    // Retryable exhaustion: the shard (or its link) is sick. Take it
    // out of this routing decision and try the next replica; the
    // breaker-driven refresh decides whether it stays out. Inside a
    // pool task the demotion is skipped — the table is pinned for the
    // epoch (the failover within this read still walks the chain) and
    // the breaker state drives the next refresh anyway.
    if (span.has_value()) span->AddTag("outcome", "failover");
    if (!runtime::TaskPool::InTask()) live_[shard] = false;
    last = got.status();
  }
  return last;
}

StatusOr<ArchiveAddress> ShardRouter::Store(const MultimediaObject& obj) {
  RefreshLiveness();
  StatusOr<ArchiveAddress> first =
      Status::Unavailable("no live replica accepted store");
  const std::vector<size_t> chain = ReplicaChain(obj.id());
  int copies = 0;
  for (size_t shard : chain) {
    if (!live_[shard]) {
      replica_store_errors_->Increment();
      continue;
    }
    StatusOr<ArchiveAddress> got = shards_[shard]->Store(obj);
    if (got.ok()) {
      ++copies;
      if (!first.ok()) first = got;
    } else {
      replica_store_errors_->Increment();
      if (!first.ok()) first = got;
    }
  }
  if (first.ok()) {
    // Catalog-wide statistics count the object once, however many
    // replicas hold it; weight voice postings with the shard profile.
    corpus_stats_.Add(obj, query::VoiceConfidence(
                               shards_.front()->recognizer_profile()));
    stats_full_adds_->Increment();
    ++catalog_version_;
    if (copies < static_cast<int>(chain.size())) {
      // The store succeeded somewhere but not everywhere: the object is
      // durable yet under-replicated until anti-entropy repairs it.
      NoteUnderReplicated(obj.id(), copies);
    }
  }
  return first;
}

StatusOr<uint32_t> ShardRouter::Append(ObjectId id,
                                       const ObjectServer::AppendParts& parts) {
  RefreshLiveness();
  StatusOr<uint32_t> first =
      Status::Unavailable("no live replica accepted append");
  const std::vector<size_t> chain = ReplicaChain(id);
  query::IndexDelta delta;
  bool have_delta = false;
  int copies = 0;
  // Replicas holding the same prior archive one successor, built once.
  ObjectServer::SharedSuccessor shared;
  for (size_t shard : chain) {
    if (!live_[shard]) {
      replica_store_errors_->Increment();
      continue;
    }
    StatusOr<ObjectServer::AppendResult> got =
        shards_[shard]->Append(id, parts, &shared);
    if (got.ok()) {
      ++copies;
      if (!have_delta) {
        // Every replica folds the identical content, so every replica
        // reports the identical stats delta: keep the first.
        delta = std::move(got->delta);
        have_delta = true;
        first = got->version;
      }
    } else {
      replica_store_errors_->Increment();
      if (!first.ok()) first = got.status();
    }
  }
  if (have_delta) {
    // Delta sync, not rebuild: the catalog-wide statistics index takes
    // exactly the df/length changes of the appended words — counted
    // once per logical object, never per replica, never a re-walk of
    // the whole object. stats_delta_applies_total vs
    // stats_full_adds_total is the observable proof the cheap path ran.
    corpus_stats_.ApplyDelta(delta);
    stats_delta_applies_->Increment();
    ++catalog_version_;
    if (copies < static_cast<int>(chain.size())) {
      // Replicas that missed the append now lag a version: surfaced as
      // redundancy debt for anti-entropy to repair, like a degraded
      // Store.
      NoteUnderReplicated(id, copies);
    }
  }
  return first;
}

uint64_t ShardRouter::catalog_version() const {
  RefreshLiveness();
  // Both terms only grow, so the sum is monotonic and moves whenever
  // either does.
  return catalog_version_ + routing_epoch_;
}

std::vector<query::ScoredHit> ShardRouter::QueryRanked(
    const std::vector<std::string>& words, size_t k, query::QueryMode mode,
    const obs::TraceContext& ctx) const {
  std::optional<obs::TraceSpan> scatter =
      obs::MaybeStartSpan(tracer_, "router.ranked_scatter", ctx);
  RefreshLiveness();
  ranked_scatters_->Increment();

  // Scatter: one task per live shard, each evaluating its local top-k
  // against the catalog-wide statistics in its own virtual-time frame.
  // The epoch barrier advances the clock by the slowest share and
  // commits every share's spans in shard order. Each share's
  // "shard.query" span ends inside its frame, so in the finished trace
  // the shares overlap, exactly as the modeled parallel shards do.
  // Registry bookkeeping stays on this thread, post-barrier, in shard
  // order, so metrics are schedule-independent.
  std::vector<size_t> targets;
  for (size_t shard = 0; shard < active_count_; ++shard) {
    if (live_[shard]) targets.push_back(shard);
  }
  std::vector<std::vector<query::ScoredHit>> per_shard(targets.size());
  std::vector<runtime::TaskPool::Task> tasks;
  tasks.reserve(targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    const size_t shard = targets[t];
    tasks.push_back([&, t, shard] {
      std::optional<obs::TraceSpan> shard_span = obs::MaybeStartSpan(
          tracer_, "shard.query", obs::ContextOf(scatter));
      if (shard_span.has_value()) {
        shard_span->AddTag("shard", static_cast<int64_t>(shard));
      }
      std::vector<query::ScoredHit> hits =
          shards_[shard]->QueryRankedWith(words, k, mode, corpus_stats_,
                                          obs::ContextOf(shard_span));
      if (shard_span.has_value()) {
        shard_span->AddTag("hits", static_cast<int64_t>(hits.size()));
        shard_span->End();
      }
      per_shard[t] = std::move(hits);
    });
  }
  const std::vector<Micros> costs = pool_->RunEpoch(std::move(tasks));
  for (size_t t = 0; t < targets.size(); ++t) {
    const size_t shard = targets[t];
    red_[shard].requests->Increment();
    red_[shard].duration_us->Record(static_cast<double>(costs[t]));
    merge_depth_->Record(static_cast<double>(per_shard[t].size()));
  }

  // Gather: k-way merge by score. Replicas of one object scored against
  // the same global statistics produce identical scores; dedup keeps
  // the max-score copy anyway, so a replica pair diverging under a
  // mid-query re-store still resolves deterministically.
  std::map<ObjectId, double> best;
  for (const std::vector<query::ScoredHit>& hits : per_shard) {
    for (const query::ScoredHit& hit : hits) {
      auto [it, inserted] = best.emplace(hit.id, hit.score);
      if (!inserted && hit.score > it->second) it->second = hit.score;
    }
  }
  std::vector<query::ScoredHit> merged;
  merged.reserve(best.size());
  for (const auto& [id, score] : best) {
    merged.push_back(query::ScoredHit{id, score});
  }
  std::sort(merged.begin(), merged.end(), query::Outranks);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

std::vector<ObjectId> ShardRouter::QueryAll(
    const std::vector<std::string>& words) const {
  RefreshLiveness();
  scatter_queries_->Increment();
  std::vector<size_t> targets;
  for (size_t i = 0; i < active_count_; ++i) {
    if (live_[i]) targets.push_back(i);
  }
  // The boolean evaluation is pure index CPU (no clock charges), so the
  // epoch advances the clock by zero and the fan-out buys only
  // wall-clock parallelism.
  std::vector<std::vector<ObjectId>> per_shard(targets.size());
  std::vector<runtime::TaskPool::Task> tasks;
  tasks.reserve(targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    const size_t shard = targets[t];
    tasks.push_back(
        [&, t, shard] { per_shard[t] = shards_[shard]->QueryAll(words); });
  }
  pool_->RunEpoch(std::move(tasks));
  // Gather: fold in shard order into one ascending, deduplicated list.
  std::vector<ObjectId> merged;
  for (std::vector<ObjectId>& hits : per_shard) {
    std::vector<ObjectId> out;
    out.reserve(merged.size() + hits.size());
    std::merge(merged.begin(), merged.end(), hits.begin(), hits.end(),
               std::back_inserter(out));
    merged = std::move(out);
  }
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

StatusOr<MiniatureCard> ShardRouter::FetchMiniature(
    ObjectId id, int thumb_width, const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "router.miniature", ctx);
  return RouteRead<MiniatureCard>(
      id,
      [&](ObjectServer* s, const obs::TraceContext& c) {
        return s->FetchMiniature(id, thumb_width, c);
      },
      obs::ContextOf(span));
}

std::vector<MiniatureCard> ShardRouter::GatherCards(
    const std::vector<ObjectId>& ids, const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> scatter =
      obs::MaybeStartSpan(tracer_, "router.gather_cards", ctx);
  RefreshLiveness();
  // Partition the positions in `ids` by their object's first live
  // replica — the shard whose card-building work they will ride.
  std::vector<std::vector<size_t>> share(shards_.size());
  std::vector<size_t> unrouted;
  for (size_t i = 0; i < ids.size(); ++i) {
    bool placed = false;
    for (size_t shard : ReplicaChain(ids[i])) {
      if (!live_[shard]) continue;
      share[shard].push_back(i);
      placed = true;
      break;
    }
    if (!placed) unrouted.push_back(i);
  }

  // Scatter: every shard builds its share as one pool task in its own
  // virtual-time frame, then the gather barrier advances by the slowest
  // shard — the fan-out runs in parallel in the modeled system. A share
  // writes only the card slots of its own positions and its own list of
  // failed positions; the post-barrier pass folds the failures — and
  // the RED bookkeeping — in shard order.
  std::vector<size_t> targets;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    if (!share[shard].empty()) targets.push_back(shard);
  }
  std::vector<std::optional<MiniatureCard>> built(ids.size());
  std::vector<std::vector<size_t>> failed(targets.size());
  std::vector<runtime::TaskPool::Task> tasks;
  tasks.reserve(targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    const size_t shard = targets[t];
    tasks.push_back([&, t, shard] {
      std::optional<obs::TraceSpan> shard_span = obs::MaybeStartSpan(
          tracer_, "shard.cards", obs::ContextOf(scatter));
      if (shard_span.has_value()) {
        shard_span->AddTag("shard", static_cast<int64_t>(shard));
        shard_span->AddTag("cards",
                           static_cast<int64_t>(share[shard].size()));
      }
      for (size_t i : share[shard]) {
        StatusOr<MiniatureCard> got = shards_[shard]->FetchMiniature(
            ids[i], 96, obs::ContextOf(shard_span));
        if (got.ok()) {
          built[i] = *std::move(got);
        } else {
          failed[t].push_back(i);
        }
      }
      if (shard_span.has_value()) shard_span->End();
    });
  }
  const std::vector<Micros> costs = pool_->RunEpoch(std::move(tasks));
  std::vector<size_t> retry_elsewhere = std::move(unrouted);
  Micros slowest = 0;
  for (size_t t = 0; t < targets.size(); ++t) {
    const size_t shard = targets[t];
    red_[shard].errors->Increment(static_cast<int64_t>(failed[t].size()));
    red_[shard].requests->Increment();
    red_[shard].duration_us->Record(static_cast<double>(costs[t]));
    slowest = std::max(slowest, costs[t]);
    retry_elsewhere.insert(retry_elsewhere.end(), failed[t].begin(),
                           failed[t].end());
  }
  gather_us_->Record(static_cast<double>(slowest));

  // Failover pass, serial (the scatter already ended): ids whose shard
  // failed mid-gather retry through the replica chain; ids no replica
  // can serve drop out of the strip rather than failing the query.
  uint64_t dropped = 0;
  for (size_t i : retry_elsewhere) {
    StatusOr<MiniatureCard> got =
        FetchMiniature(ids[i], 96, obs::ContextOf(scatter));
    if (got.ok()) {
      built[i] = *std::move(got);
    } else {
      dropped_results_->Increment();
      ++dropped;
    }
  }
  if (scatter.has_value() && dropped > 0) {
    scatter->AddTag("dropped", static_cast<int64_t>(dropped));
  }

  std::vector<MiniatureCard> cards;
  cards.reserve(ids.size() - dropped);
  for (std::optional<MiniatureCard>& card : built) {
    if (card.has_value()) cards.push_back(*std::move(card));
  }
  return cards;
}

StatusOr<MultimediaObject> ShardRouter::Fetch(
    ObjectId id, FetchGranularity granularity,
    const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "router.fetch", ctx);
  return RouteRead<MultimediaObject>(
      id,
      [&](ObjectServer* s, const obs::TraceContext& c) {
        return s->Fetch(id, granularity, c);
      },
      obs::ContextOf(span));
}

StatusOr<image::Bitmap> ShardRouter::FetchImageRegion(
    ObjectId id, uint32_t image_index, const image::Rect& r,
    const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "router.region", ctx);
  return RouteRead<image::Bitmap>(
      id,
      [&](ObjectServer* s, const obs::TraceContext& c) {
        return s->FetchImageRegion(id, image_index, r, c);
      },
      obs::ContextOf(span));
}

Status ShardRouter::StagePartRange(ObjectId id, std::string_view part_name,
                                   uint64_t offset, uint64_t length,
                                   const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "router.stage", ctx);
  return RouteRead<bool>(
             id,
             [&](ObjectServer* s,
                 const obs::TraceContext& c) -> StatusOr<bool> {
               MINOS_RETURN_IF_ERROR(
                   s->StagePartRange(id, part_name, offset, length, c));
               return true;
             },
             obs::ContextOf(span))
      .status();
}

const RetryPolicy& ShardRouter::retry_policy() const {
  return shards_.front()->retry_policy();
}

void ShardRouter::SetBackoffSleeper(BackoffSleeper sleeper) {
  for (ObjectServer* shard : shards_) {
    shard->SetBackoffSleeper(sleeper);
  }
}

Link* ShardRouter::RouteLink(ObjectId id) const {
  RefreshLiveness();
  for (size_t shard : ReplicaChain(id)) {
    if (live_[shard]) return shards_[shard]->link();
  }
  return nullptr;
}

uint64_t ShardRouter::PrefetchAffinity(ObjectId id) const {
  RefreshLiveness();
  for (size_t shard : ReplicaChain(id)) {
    if (live_[shard]) return 1 + static_cast<uint64_t>(shard);
  }
  return 0;
}

std::vector<Link*> ShardRouter::links() const {
  std::vector<Link*> out;
  for (ObjectServer* shard : shards_) {
    if (shard->link() != nullptr) out.push_back(shard->link());
  }
  return out;
}

size_t ShardRouter::AddShard(ObjectServer* shard) {
  assert(shard != nullptr);
  // Idempotent: re-staging the same server (a retried expansion) keeps
  // its existing slot instead of growing the fleet again.
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i] == shard) return i;
  }
  const size_t index = shards_.size();
  shards_.push_back(shard);
  live_.push_back(true);
  const std::string scope = "router.shard" + std::to_string(index);
  red_.push_back(ShardRed{reg_->counter(scope + ".requests_total"),
                          reg_->counter(scope + ".errors_total"),
                          reg_->histogram(scope + ".duration_us")});
  if (tracer_ != nullptr) shard->SetTracer(tracer_);
  // active_count_ is untouched: the staged shard takes no traffic until
  // CommitExpansion flips the placement modulus.
  return index;
}

void ShardRouter::CommitExpansion() {
  if (active_count_ == shards_.size()) return;
  active_count_ = shards_.size();
  ++routing_epoch_;
  rebalances_->Increment();
  RefreshLiveness();
}

void ShardRouter::NoteUnderReplicated(ObjectId id, int live_copies) {
  degraded_stores_->Increment();
  under_replicated_.insert(id);
  under_replicated_g_->Set(static_cast<double>(under_replicated_.size()));
  if (degraded_store_listener_) degraded_store_listener_(id, live_copies);
}

void ShardRouter::ReplaceUnderReplicated(std::set<ObjectId> ids) {
  under_replicated_ = std::move(ids);
  under_replicated_g_->Set(static_cast<double>(under_replicated_.size()));
}

}  // namespace minos::server
