#include "minos/server/workstation.h"

#include <algorithm>
#include <utility>

namespace minos::server {

MiniatureBrowser::MiniatureBrowser(std::vector<MiniatureCard> cards) {
  slots_.reserve(cards.size());
  for (MiniatureCard& card : cards) {
    Slot slot;
    slot.id = card.id;
    slot.card = std::move(card);
    slots_.push_back(std::move(slot));
  }
}

MiniatureBrowser::MiniatureBrowser(std::vector<storage::ObjectId> ids,
                                   CardFetcher fetcher)
    : fetcher_(std::move(fetcher)) {
  slots_.reserve(ids.size());
  for (storage::ObjectId id : ids) {
    Slot slot;
    slot.id = id;
    slots_.push_back(std::move(slot));
  }
}

StatusOr<const MiniatureCard*> MiniatureBrowser::Ensure(size_t slot) {
  Slot& s = slots_[slot];
  if (!s.card.has_value()) {
    if (!fetcher_) {
      return Status::FailedPrecondition("lazy miniature without a fetcher");
    }
    MINOS_ASSIGN_OR_RETURN(MiniatureCard card,
                           fetcher_(s.id, static_cast<int>(slot)));
    s.card = std::move(card);
  }
  return &*s.card;
}

StatusOr<const MiniatureCard*> MiniatureBrowser::Current() {
  if (slots_.empty()) return Status::NotFound("no qualifying objects");
  return Ensure(cursor_);
}

void MiniatureBrowser::PlayPreviewIfAudio() {
  if (player_ == nullptr || cursor_ >= slots_.size()) return;
  StatusOr<const MiniatureCard*> card = Ensure(cursor_);
  if (!card.ok()) return;  // An unfetchable card stays silent.
  if (!(*card)->audio_mode || (*card)->preview_transcript.empty()) return;
  player_->Play((*card)->preview_transcript, log_,
                core::EventKind::kVoicePlayed,
                static_cast<int64_t>((*card)->id));
}

Status MiniatureBrowser::MoveTo(size_t target) {
  cursor_ = target;
  if (cursor_listener_) {
    cursor_listener_(static_cast<int>(cursor_),
                     static_cast<int>(slots_.size()), /*jump=*/false);
  }
  PlayPreviewIfAudio();
  return Status::OK();
}

Status MiniatureBrowser::Next() {
  if (cursor_ + 1 >= slots_.size()) {
    return Status::OutOfRange("already at the last miniature");
  }
  return MoveTo(cursor_ + 1);
}

Status MiniatureBrowser::Previous() {
  if (cursor_ == 0) {
    return Status::OutOfRange("already at the first miniature");
  }
  return MoveTo(cursor_ - 1);
}

StatusOr<storage::ObjectId> MiniatureBrowser::Select() const {
  if (slots_.empty()) return Status::NotFound("no qualifying objects");
  return slots_[cursor_].id;
}

Workstation::Workstation(ObjectStore* server, render::Screen* screen,
                         SimClock* clock)
    : server_(server), clock_(clock), presentation_(screen, clock) {
  presentation_.SetResolver(
      [this](storage::ObjectId id) { return Resolve(id); });
}

Workstation::~Workstation() {
  // The borrowed server keeps serving other sessions after this one
  // ends; anything the session installed into it comes back out here:
  // the tracer must not outlive its owner, and the sleeper must not
  // pump a destroyed queue.
  if (tracer_ != nullptr) {
    server_->SetTracer(nullptr);
    if (pool_ != nullptr) pool_->SetTracer(nullptr);
  }
  if (prefetch_ == nullptr) return;
  server_->SetBackoffSleeper(BackoffSleeper());
  presentation_.SetBrowseListener(nullptr);
  prefetch_->CancelAll();
}

void Workstation::SetTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  server_->SetTracer(tracer);
  presentation_.SetTracer(tracer);
  if (pool_ != nullptr) pool_->SetTracer(tracer);
}

void Workstation::SetTaskPool(runtime::TaskPool* pool) {
  pool_ = pool;
  if (pool != nullptr && tracer_ != nullptr) pool->SetTracer(tracer_);
  server_->SetTaskPool(pool);
  if (prefetch_ != nullptr) {
    prefetch_->SetTaskPool(
        pool, [this](uint64_t id) { return server_->PrefetchAffinity(id); });
  }
}

void Workstation::EnablePrefetch(PrefetchOptions options) {
  prefetch_options_ = options;
  prefetch_ =
      std::make_unique<PrefetchQueue>(clock_, server_->links(), options);
  prefetch_->SetTaskPool(
      pool_, [this](uint64_t id) { return server_->PrefetchAffinity(id); });
  server_->SetBackoffSleeper(prefetch_->MakeBackoffSleeper());
  presentation_.SetBrowseListener(
      [this](const core::PresentationManager::BrowseEvent& event) {
        OnBrowse(event);
      });
}

StatusOr<object::MultimediaObject> Workstation::Resolve(
    storage::ObjectId id) {
  // The resolver runs inside the presentation manager's ambient
  // "open#<id>" span; CurCtx() bridges it into the fabric.
  if (prefetch_ == nullptr) {
    return server_->Fetch(id, FetchGranularity::kWhole, CurCtx());
  }
  // Prefetching mode: a staged skeleton is a free open; otherwise fetch
  // the skeleton in the foreground and let pages transfer on demand.
  if (std::optional<object::MultimediaObject> staged =
          prefetch_->TakeObject(id)) {
    BuildPlan(id, staged->descriptor());
    return *std::move(staged);
  }
  MINOS_ASSIGN_OR_RETURN(
      object::MultimediaObject obj,
      server_->Fetch(id, FetchGranularity::kSkeleton, CurCtx()));
  BuildPlan(id, obj.descriptor());
  return obj;
}

void Workstation::BuildPlan(storage::ObjectId id,
                            const object::ObjectDescriptor& desc) {
  // Re-resolving (a fresh Open of the same object) restarts delivery:
  // the skeleton fetch deferred the page bytes again, so entries staged
  // for a previous open must not satisfy pages of the new one.
  prefetch_->CancelObject(id);
  plans_.insert_or_assign(id, ObjectPlan{PagePlan(desc), {}});
}

Status Workstation::StageAndTransfer(storage::ObjectId id,
                                     const std::vector<PageRange>& ranges,
                                     bool with_retries,
                                     const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "ws.transfer", ctx);
  const obs::TraceContext sctx = obs::ContextOf(span);
  MINOS_ASSIGN_OR_RETURN(const uint64_t bytes,
                         StageRanges(server_, id, ranges, sctx));
  // The link the object travels is a routing decision (a sharded store
  // may fail over between attempts), so it is re-asked per transfer.
  Link* link = server_->RouteLink(id);
  if (bytes == 0 || link == nullptr) return Status::OK();
  if (span.has_value()) {
    span->AddTag("bytes", static_cast<int64_t>(bytes));
    if (link->in_background()) span->AddTag("lane", "background");
  }
  if (!with_retries) return link->Transfer(bytes, sctx).status();
  return RetryWithBackoff<Micros>(
             server_->retry_policy(), clock_, &page_rng_,
             prefetch_ != nullptr ? prefetch_->MakeBackoffSleeper()
                                  : BackoffSleeper(),
             [&]() -> StatusOr<Micros> {
               Link* routed = server_->RouteLink(id);
               if (routed == nullptr) {
                 return Status::Unavailable("no live route for transfer");
               }
               return routed->Transfer(bytes, sctx);
             },
             RetryTrace{tracer_, sctx})
      .status();
}

void Workstation::OnBrowse(
    const core::PresentationManager::BrowseEvent& event) {
  if (prefetch_ == nullptr) return;
  auto plan_it = plans_.find(event.object_id);
  if (plan_it == plans_.end()) return;  // Opened before prefetch enabled.
  // Each page turn roots its own trace: the delivery stall, the
  // speculative staging it schedules, and any retries all attribute to
  // this one user action.
  std::optional<obs::TraceSpan> span;
  if (tracer_ != nullptr) span = tracer_->StartSpan("ws.page_turn");
  if (span.has_value()) {
    span->AddTag("object", static_cast<int64_t>(event.object_id));
    span->AddTag("page", static_cast<int64_t>(event.page));
  }
  ObjectPlan& plan = plan_it->second;
  const bool audio = event.mode == object::DrivingMode::kAudio;
  const PrefetchKind kind =
      audio ? PrefetchKind::kAudioPage : PrefetchKind::kVisualPage;
  const uint64_t id = event.object_id;
  const PrefetchKey key{kind, id, event.page};
  if (event.jump) {
    // Random seek: entries around the old cursor are stale.
    prefetch_->OnJump(key, std::max(prefetch_options_.pages_ahead,
                                    prefetch_options_.pages_behind));
  }

  // Deliver the page under the cursor: claim the staged transfer, or do
  // it in the foreground (this runs inside the browser's page-turn
  // measurement, so the stall is charged to this turn).
  const std::vector<PageRange> ranges =
      plan.Undelivered(audio, event.page, event.page_count);
  if (!ranges.empty()) {
    bool have = prefetch_->TakePage(key);
    if (span.has_value()) span->AddTag("prefetch", have ? "hit" : "miss");
    if (!have) {
      Status fetched = StageAndTransfer(id, ranges, /*with_retries=*/true,
                                        obs::ContextOf(span));
      have = fetched.ok();
      if (!have) {
        if (span.has_value()) span->AddTag("degraded", "skeleton");
        presentation_.NoteDegraded(
            id, "page:" + std::to_string(event.page),
            "page content not delivered (" + fetched.message() +
                "); presenting skeleton");
      }
    }
    if (have) plan.delivered.insert(event.page);
  }

  // Speculate around the new cursor: next pages first, then previous.
  for (int step = 1; step <= prefetch_options_.pages_ahead; ++step) {
    ScheduleWantPage(kind, id, event.page + step, event.page_count, step,
                     obs::ContextOf(span));
  }
  for (int step = 1; step <= prefetch_options_.pages_behind; ++step) {
    ScheduleWantPage(kind, id, event.page - step, event.page_count, step,
                     obs::ContextOf(span));
  }
  prefetch_->Pump();
}

void Workstation::ScheduleWantPage(PrefetchKind kind, storage::ObjectId id,
                                   int page, int page_count, int distance,
                                   const obs::TraceContext& ctx) {
  if (page < 1 || page > page_count) return;
  PrefetchKey key{kind, id, page};
  prefetch_->WantPage(key, distance,
                      [this, kind, id, page, page_count, ctx] {
    // Resolved at issue time: a page delivered since it was queued
    // transfers nothing. The captured context keeps the eventual
    // background transfer attributed to the page turn that scheduled
    // the speculation, however much later the pipeline issues it.
    auto plan_it = plans_.find(id);
    if (plan_it == plans_.end()) {
      return Status::FailedPrecondition("object closed before prefetch");
    }
    return StageAndTransfer(
        id,
        plan_it->second.Undelivered(kind == PrefetchKind::kAudioPage, page,
                                    page_count),
        /*with_retries=*/false, ctx);
  });
}

StatusOr<MiniatureBrowser> Workstation::Query(
    const std::vector<std::string>& words) {
  std::optional<obs::TraceSpan> span;
  if (tracer_ != nullptr) span = tracer_->StartSpan("ws.query");
  std::vector<query::ScoredHit> hits;
  for (storage::ObjectId id : server_->QueryAll(words)) {
    hits.push_back(query::ScoredHit{id, 0});
  }
  return Strip(hits, obs::ContextOf(span));
}

StatusOr<MiniatureBrowser> Workstation::QueryRanked(
    const std::vector<std::string>& words, size_t k) {
  std::optional<obs::TraceSpan> span;
  if (tracer_ != nullptr) span = tracer_->StartSpan("ws.query_ranked");
  if (span.has_value()) span->AddTag("k", static_cast<int64_t>(k));
  const query::QueryMode mode = query::QueryMode::kConjunctive;
  const std::string key = query::QueryResultCache::Key(words, k, mode);
  std::vector<query::ScoredHit> hits;
  if (std::optional<std::vector<query::ScoredHit>> cached =
          ranked_cache_.Lookup(key, server_->catalog_version())) {
    if (span.has_value()) span->AddTag("cache", "hit");
    hits = *std::move(cached);
  } else {
    if (span.has_value()) span->AddTag("cache", "miss");
    hits = server_->QueryRanked(words, k, mode, obs::ContextOf(span));
    ranked_cache_.Insert(key, server_->catalog_version(), hits);
  }
  return Strip(hits, obs::ContextOf(span));
}

MiniatureBrowser Workstation::Strip(const std::vector<query::ScoredHit>& hits,
                                    const obs::TraceContext& ctx) {
  std::vector<storage::ObjectId> ids;
  ids.reserve(hits.size());
  for (const query::ScoredHit& hit : hits) ids.push_back(hit.id);
  if (prefetch_ != nullptr) return LazyStrip(ids, hits);
  // The store owns the gather: a single server builds cards serially,
  // a sharded one scatters the work and overlaps the shards. The cards
  // come back in hit order, minus any the store could not build; each
  // such gap is noted so the session knows the answer is partial.
  std::vector<MiniatureCard> cards = server_->GatherCards(ids, ctx);
  auto card = cards.begin();
  for (const query::ScoredHit& hit : hits) {
    if (card == cards.end() || card->id != hit.id) {
      presentation_.NoteDegraded(hit.id, "miniature",
                                 "card not delivered; dropped from strip");
      continue;
    }
    card->score = hit.score;
    thumb_cache_[hit.id] = card->thumb;
    ++card;
  }
  return MiniatureBrowser(std::move(cards));
}

MiniatureBrowser Workstation::LazyStrip(
    const std::vector<storage::ObjectId>& ids,
    std::vector<query::ScoredHit> hits) {
  // A new query builds a new strip: cards staged for the old strip are
  // keyed by position only and would otherwise be delivered as the
  // cards of whatever objects now occupy those positions.
  prefetch_->Cancel(PrefetchKind::kMiniature);
  // Cards materialize under the cursor, claiming staged ones first.
  MiniatureBrowser browser(
      ids, [this, hits = std::move(hits)](storage::ObjectId id,
                                           int position) {
        std::optional<MiniatureCard> staged =
            prefetch_->TakeMiniature(position, id);
        StatusOr<MiniatureCard> card =
            staged.has_value() ? StatusOr<MiniatureCard>(*std::move(staged))
                               : server_->FetchMiniature(id, 96, CurCtx());
        if (card.ok()) {
          card->score = hits[static_cast<size_t>(position)].score;
          thumb_cache_[id] = card->thumb;
        }
        return card;
      });
  browser.SetCursorListener([this, ids](int position, int count, bool jump) {
    (void)count;
    OnMiniatureCursor(ids, position, jump);
  });
  OnMiniatureCursor(ids, 0, /*jump=*/false);
  return browser;
}

void Workstation::OnMiniatureCursor(
    const std::vector<storage::ObjectId>& ids, int position, bool jump) {
  if (prefetch_ == nullptr || ids.empty()) return;
  if (jump) {
    prefetch_->OnJump(PrefetchKey{PrefetchKind::kMiniature, 0, position},
                      prefetch_options_.miniature_radius);
  }
  const int count = static_cast<int>(ids.size());
  for (int step = 1; step <= prefetch_options_.miniature_radius; ++step) {
    for (int sign : {+1, -1}) {
      const int neighbour = position + sign * step;
      if (neighbour < 0 || neighbour >= count) continue;
      const storage::ObjectId id = ids[static_cast<size_t>(neighbour)];
      prefetch_->WantMiniature(
          neighbour, step, [this, id] { return server_->FetchMiniature(id); },
          /*affinity_object=*/id);
    }
  }
  // The object under the cursor is the one about to be opened.
  const storage::ObjectId under = ids[static_cast<size_t>(position)];
  prefetch_->WantObject(under, 0, [this, under] {
    return server_->Fetch(under, FetchGranularity::kSkeleton);
  });
  prefetch_->Pump();
}

Status Workstation::Present(storage::ObjectId id) {
  // The manager's ambient "open#<id>" span nests under this root, and
  // the resolver's fabric spans hang off it through CurCtx().
  std::optional<obs::TraceSpan> span;
  if (tracer_ != nullptr) span = tracer_->StartSpan("ws.present");
  return presentation_.Open(id);
}

StatusOr<image::Bitmap> Workstation::FetchImageRegion(storage::ObjectId id,
                                                      uint32_t image_index,
                                                      const image::Rect& r) {
  std::optional<obs::TraceSpan> span;
  if (tracer_ != nullptr) span = tracer_->StartSpan("ws.region");
  StatusOr<image::Bitmap> region =
      server_->FetchImageRegion(id, image_index, r, obs::ContextOf(span));
  if (region.ok()) return region;
  auto cached = thumb_cache_.find(id);
  if (cached == thumb_cache_.end()) return region;
  if (span.has_value()) span->AddTag("degraded", "thumbnail");
  presentation_.NoteDegraded(id, "image:" + std::to_string(image_index),
                             "region fetch failed (" +
                                 region.status().message() +
                                 "); showing cached miniature");
  return cached->second;
}

}  // namespace minos::server
