#include "minos/server/prefetch.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace minos::server {

PrefetchQueue::PrefetchQueue(SimClock* clock, Link* link,
                             PrefetchOptions options)
    : PrefetchQueue(clock,
                    link != nullptr ? std::vector<Link*>{link}
                                    : std::vector<Link*>{},
                    options) {}

PrefetchQueue::PrefetchQueue(SimClock* clock, std::vector<Link*> links,
                             PrefetchOptions options)
    : clock_(clock),
      links_(std::move(links)),
      options_(options),
      inline_pool_(clock, /*workers=*/0) {
  obs::MetricsRegistry& reg = options_.registry != nullptr
                                  ? *options_.registry
                                  : obs::MetricsRegistry::Default();
  enqueued_ = reg.counter("prefetch.enqueued");
  issued_ = reg.counter("prefetch.issued");
  hits_ = reg.counter("prefetch.hits");
  partial_hits_ = reg.counter("prefetch.partial_hits");
  misses_ = reg.counter("prefetch.misses");
  wasted_ = reg.counter("prefetch.wasted");
  cancelled_ = reg.counter("prefetch.cancelled");
  errors_ = reg.counter("prefetch.errors");
  wait_us_ = reg.histogram("prefetch.wait_us");
  issue_cost_us_ = reg.histogram("prefetch.issue_cost_us");
  queue_depth_ = reg.gauge("prefetch.queue_depth");
}

PrefetchQueue::~PrefetchQueue() {
  wasted_->Increment(static_cast<int64_t>(ready_count()));
}

void PrefetchQueue::UpdateDepth() {
  queue_depth_->Set(static_cast<double>(entries_.size()));
}

void PrefetchQueue::SetTaskPool(runtime::TaskPool* pool,
                                AffinityFn affinity) {
  pool_ = pool != nullptr ? pool : &inline_pool_;
  affinity_ = std::move(affinity);
}

void PrefetchQueue::Enqueue(const PrefetchKey& key, int distance,
                            PageWork work, uint64_t affinity_object,
                            uint64_t bytes) {
  if (!work) return;
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) return;
  Entry& entry = it->second;
  entry.distance = std::abs(distance);
  entry.seq = next_seq_++;
  entry.affinity_object = affinity_object;
  entry.bytes = bytes;
  entry.run = std::move(work);
  pick_order_.emplace(std::pair{entry.distance, entry.seq}, it);
  OwnerIndex& owner = owners_[key.owner];
  owner.queued.emplace(entry.seq, it);
  owner.live_bytes += bytes;
  enqueued_->Increment();
  UpdateDepth();
}

std::optional<PrefetchQueue::EvictRank> PrefetchQueue::RankOf(
    const OwnerIndex& owner) {
  if (owner.ready.empty()) return std::nullopt;
  return EvictRank{owner.ready_bytes, owner.ready.begin()->first};
}

void PrefetchQueue::Rerank(uint64_t id, const OwnerIndex& owner,
                           const std::optional<EvictRank>& before) {
  const std::optional<EvictRank> after = RankOf(owner);
  if (!before.has_value()) {
    if (after.has_value()) evict_order_.emplace(*after, id);
    return;
  }
  auto node = evict_order_.extract(*before);
  if (!after.has_value()) return;
  node.key() = *after;
  evict_order_.insert(std::move(node));
}

void PrefetchQueue::MarkReady(EntryRef it, Micros ready_at) {
  Entry& entry = it->second;
  pick_order_.erase({entry.distance, entry.seq});
  entry.ready = true;
  entry.ready_at = ready_at;
  entry.run = nullptr;
  const uint64_t id = it->first.owner;
  OwnerIndex& owner = owners_.at(id);
  const std::optional<EvictRank> before = RankOf(owner);
  owner.ready.insert(owner.queued.extract(entry.seq));
  owner.ready_bytes += entry.bytes;
  Rerank(id, owner, before);
}

PrefetchQueue::EntryRef PrefetchQueue::Erase(EntryRef it) {
  const Entry& entry = it->second;
  const uint64_t id = it->first.owner;
  auto found = owners_.find(id);
  OwnerIndex& owner = found->second;
  if (entry.ready) {
    const std::optional<EvictRank> before = RankOf(owner);
    owner.ready.erase(entry.seq);
    owner.ready_bytes -= entry.bytes;
    Rerank(id, owner, before);
  } else {
    pick_order_.erase({entry.distance, entry.seq});
    owner.queued.erase(entry.seq);
  }
  owner.live_bytes -= entry.bytes;
  if (owner.queued.empty() && owner.ready.empty()) owners_.erase(found);
  return entries_.erase(it);
}

PrefetchQueue::EntryRef PrefetchQueue::Drop(EntryRef it) {
  (it->second.ready ? wasted_ : cancelled_)->Increment();
  return Erase(it);
}

void PrefetchQueue::WantPage(const PrefetchKey& key, int distance,
                             PageWork work, uint64_t bytes) {
  Enqueue(key, distance, std::move(work), key.object_id, bytes);
}

void PrefetchQueue::WantObject(uint64_t object_id, int distance,
                               ObjectWork work) {
  if (!work) return;
  PrefetchKey key{PrefetchKind::kObject, object_id, 0};
  auto shared =
      std::make_shared<ObjectWork>(std::move(work));
  WantPage(key, distance,
           [this, key, shared]() -> Status {
             StatusOr<object::MultimediaObject> got = (*shared)();
             if (!got.ok()) return got.status();
             entries_.at(key).object =
                 std::make_unique<object::MultimediaObject>(*std::move(got));
             return Status::OK();
           });
}

void PrefetchQueue::WantMiniature(int position, int distance, CardWork work,
                                  uint64_t affinity_object) {
  if (!work) return;
  PrefetchKey key{PrefetchKind::kMiniature, 0, position};
  auto shared = std::make_shared<CardWork>(std::move(work));
  Enqueue(key, distance,
          [this, key, shared]() -> Status {
            StatusOr<MiniatureCard> got = (*shared)();
            if (!got.ok()) return got.status();
            entries_.at(key).card =
                std::make_unique<MiniatureCard>(*std::move(got));
            return Status::OK();
          },
          affinity_object);
}

void PrefetchQueue::Book(EntryRef it, Micros start, Micros cost,
                         const Status& verdict) {
  issued_->Increment();
  issue_cost_us_->Record(static_cast<double>(cost));
  bg_free_at_ = std::max(bg_free_at_, start) + cost;
  if (!verdict.ok()) {
    errors_->Increment();
    Erase(it);
    return;
  }
  MarkReady(it, bg_free_at_);
}

void PrefetchQueue::Pump() {
  if (pumping_) return;  // A pumped transfer's retry is pumping us.
  pumping_ = true;
  // Pick phase: the head of the pick order — nearest cursor distance
  // first, FIFO among equals — at most max_inflight_per_pump entries.
  // Issue outcomes never affect candidacy (issued entries turn ready,
  // failed ones are erased — both leave the pick pool), so picking
  // everything up front is the same sequence the issue-as-you-go loop
  // produced.
  const size_t limit =
      static_cast<size_t>(std::max(0, options_.max_inflight_per_pump));
  std::vector<EntryRef> picked;
  picked.reserve(std::min(limit, pick_order_.size()));
  for (auto it = pick_order_.begin();
       it != pick_order_.end() && picked.size() < limit; ++it) {
    picked.push_back(it->second);
  }
  if (!picked.empty()) Issue(picked);
  EvictOverCapacity();
  UpdateDepth();
  pumping_ = false;
}

void PrefetchQueue::Issue(const std::vector<EntryRef>& picked) {
  // Group the picks by staging affinity: entries bound for different
  // shards ride different arms and may stage concurrently; entries of
  // one group — and every pick when no affinity oracle is installed —
  // run sequentially inside one task. Without workers nothing runs
  // concurrently, so every pick rides one group, in pick order. Group
  // membership is a pure function of pick order, affinity and whether
  // the pool has workers at all, never of how many it has.
  const bool grouped = affinity_ && pool_->worker_count() > 0;
  std::vector<uint64_t> group_ids;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < picked.size(); ++i) {
    const uint64_t affinity =
        grouped ? affinity_(picked[i]->second.affinity_object) : 0;
    size_t g = 0;
    for (; g < group_ids.size(); ++g) {
      if (group_ids[g] == affinity) break;
    }
    if (g == group_ids.size()) {
      group_ids.push_back(affinity);
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }

  struct IssueOutcome {
    Micros cost = 0;
    Status verdict = Status::OK();
  };
  std::vector<IssueOutcome> outcomes(picked.size());
  {
    // One scope per link: a sharded fetch may fail over mid-work, and
    // every link it touches must see the access as speculative. The
    // scopes span the whole epoch from this thread: the per-link flag is
    // a plain bool, so it must be set before any task runs and cleared
    // after the barrier, never toggled mid-epoch.
    std::vector<std::unique_ptr<Link::BackgroundScope>> background;
    background.reserve(links_.size());
    for (Link* link : links_) {
      background.push_back(std::make_unique<Link::BackgroundScope>(link));
    }
    std::vector<runtime::TaskPool::Task> tasks;
    tasks.reserve(groups.size());
    for (const std::vector<size_t>& group : groups) {
      // Tasks only read the map and the indexes; every index update
      // happens in the booking pass below, on this thread.
      tasks.push_back([this, &picked, &outcomes, &group] {
        for (size_t i : group) {
          const Micros start = clock_->Now();
          outcomes[i].verdict = picked[i]->second.run();
          outcomes[i].cost = clock_->Now() - start;
          // The frame never advances: staging time is booked on the
          // background channel below.
          clock_->RewindTo(start);
        }
      });
    }
    pool_->RunEpoch(std::move(tasks));
  }

  // Booking pass, in pick order: every pick started at this same
  // virtual instant, since each one rewinds before the next one runs.
  const Micros start = clock_->Now();
  for (size_t i = 0; i < picked.size(); ++i) {
    Book(picked[i], start, outcomes[i].cost, outcomes[i].verdict);
  }
}

void PrefetchQueue::EvictOverCapacity() {
  // The victim owner is whoever holds the most ready bytes, so a
  // budget-capped session's staged pages survive a greedy neighbor's
  // flood. Ties (including the all-bytes-untracked case, where every
  // owner holds 0) go to the owner of the globally stalest ready entry,
  // which with a single owner is plain evict-stalest. The victim entry
  // is that owner's stalest ready one.
  while (ready_count() > options_.ready_capacity) {
    const OwnerIndex& owner = owners_.at(evict_order_.begin()->second);
    Drop(owner.ready.begin()->second);
  }
}

bool PrefetchQueue::TakePage(const PrefetchKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_->Increment();
    return false;
  }
  if (!it->second.ready) {
    // Queued but never issued: the foreground fetch supersedes it.
    Erase(it);
    misses_->Increment();
    UpdateDepth();
    return false;
  }
  const Micros now = clock_->Now();
  if (it->second.ready_at > now) {
    // Early consumer: wait out the residual background time only.
    const Micros residual = it->second.ready_at - now;
    if (key.kind != PrefetchKind::kObject &&
        residual > options_.max_page_wait_us) {
      // The channel is backed up behind other speculation; a foreground
      // transfer is cheaper than waiting. The work was done for nothing.
      Erase(it);
      wasted_->Increment();
      misses_->Increment();
      UpdateDepth();
      return false;
    }
    clock_->Advance(residual);
    wait_us_->Record(static_cast<double>(residual));
    partial_hits_->Increment();
  } else {
    wait_us_->Record(0.0);
    hits_->Increment();
  }
  Erase(it);
  UpdateDepth();
  return true;
}

std::optional<object::MultimediaObject> PrefetchQueue::TakeObject(
    uint64_t object_id) {
  PrefetchKey key{PrefetchKind::kObject, object_id, 0};
  auto it = entries_.find(key);
  std::optional<object::MultimediaObject> payload;
  if (it != entries_.end() && it->second.ready && it->second.object) {
    payload = std::move(*it->second.object);
  }
  if (!TakePage(key)) return std::nullopt;
  return payload;
}

std::optional<MiniatureCard> PrefetchQueue::TakeMiniature(
    int position, uint64_t expected_id) {
  PrefetchKey key{PrefetchKind::kMiniature, 0, position};
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.ready &&
      it->second.card != nullptr && it->second.card->id != expected_id) {
    // Staged for another query's strip: the same position now names a
    // different object, and its card must never be delivered here.
    Erase(it);
    wasted_->Increment();
    misses_->Increment();
    UpdateDepth();
    return std::nullopt;
  }
  std::optional<MiniatureCard> payload;
  if (it != entries_.end() && it->second.ready && it->second.card) {
    payload = std::move(*it->second.card);
  }
  if (!TakePage(key)) return std::nullopt;
  return payload;
}

void PrefetchQueue::DropRun(
    PrefetchKind kind, uint64_t object_id,
    const std::function<bool(const PrefetchKey& key)>& stale) {
  auto it = entries_.lower_bound(
      PrefetchKey{kind, object_id, std::numeric_limits<int>::min(), 0});
  while (it != entries_.end() && it->first.kind == kind &&
         it->first.object_id == object_id) {
    it = stale(it->first) ? Drop(it) : std::next(it);
  }
}

void PrefetchQueue::OnJump(const PrefetchKey& cursor, int radius) {
  DropRun(cursor.kind, cursor.object_id, [&](const PrefetchKey& key) {
    return key.owner == cursor.owner &&
           std::abs(key.index - cursor.index) > radius;
  });
  UpdateDepth();
}

void PrefetchQueue::Cancel(PrefetchKind kind) {
  auto it = entries_.lower_bound(
      PrefetchKey{kind, 0, std::numeric_limits<int>::min(), 0});
  while (it != entries_.end() && it->first.kind == kind) it = Drop(it);
  UpdateDepth();
}

void PrefetchQueue::CancelObject(uint64_t object_id) {
  // Every kind but kMiniature, whose object_id is always 0.
  for (PrefetchKind kind : {PrefetchKind::kObject, PrefetchKind::kVisualPage,
                            PrefetchKind::kAudioPage}) {
    DropRun(kind, object_id, [](const PrefetchKey&) { return true; });
  }
  UpdateDepth();
}

void PrefetchQueue::CancelAll() {
  for (auto it = entries_.begin(); it != entries_.end();) it = Drop(it);
  UpdateDepth();
}

void PrefetchQueue::CancelOwner(uint64_t owner) {
  auto found = owners_.find(owner);
  if (found != owners_.end()) {
    // Dropping the owner's last entry erases its index: walk a copy.
    const OwnerIndex& index = found->second;
    std::vector<EntryRef> doomed;
    doomed.reserve(index.queued.size() + index.ready.size());
    for (const auto& [seq, it] : index.queued) doomed.push_back(it);
    for (const auto& [seq, it] : index.ready) doomed.push_back(it);
    for (EntryRef it : doomed) Drop(it);
  }
  UpdateDepth();
}

BackoffSleeper PrefetchQueue::MakeBackoffSleeper() {
  return [this](Micros delay) {
    // Spend the backoff window starting background transfers, then let
    // the foreground wait out its delay as before. The pumped work books
    // onto the background channel, so the window is not double-charged.
    Pump();
    clock_->Advance(delay);
  };
}

size_t PrefetchQueue::queued_count() const { return pick_order_.size(); }

size_t PrefetchQueue::ready_count() const {
  return entries_.size() - pick_order_.size();
}

uint64_t PrefetchQueue::OutstandingBytes(uint64_t owner) const {
  auto found = owners_.find(owner);
  return found == owners_.end() ? 0 : found->second.live_bytes;
}

}  // namespace minos::server
