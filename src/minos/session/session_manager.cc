#include "minos/session/session_manager.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "minos/server/link.h"

namespace minos::session {

namespace {

/// Pages speculated per settled event, spaced by the learned stride.
constexpr int kSpeculateDepth = 2;
/// Top-k for ranked searches.
constexpr size_t kSearchK = 8;

const char* SpanNameFor(SessionEvent::Kind kind) {
  switch (kind) {
    case SessionEvent::Kind::kSearch: return "session.search";
    case SessionEvent::Kind::kOpen: return "session.open";
    case SessionEvent::Kind::kPageTurn: return "session.page_turn";
    case SessionEvent::Kind::kJump: return "session.jump";
    case SessionEvent::Kind::kAppend: return "session.append";
    case SessionEvent::Kind::kClose: return "session.close";
  }
  return "session.event";
}

}  // namespace

SessionManager::SessionManager(server::ObjectStore* store, SimClock* clock,
                               SessionOptions options)
    : store_(store),
      clock_(clock),
      options_(options),
      inline_pool_(clock, /*workers=*/0) {
  registry_ = options_.registry != nullptr ? options_.registry
                                           : &obs::MetricsRegistry::Default();
  if (options_.prefetch.registry == nullptr) {
    options_.prefetch.registry = registry_;
  }
  queue_ = std::make_unique<server::PrefetchQueue>(clock_, store_->links(),
                                                   options_.prefetch);
  opened_ = registry_->counter("session.opened_total");
  admitted_ = registry_->counter("session.admitted_total");
  admission_queued_ = registry_->counter("session.admission_queued_total");
  queue_admitted_ = registry_->counter("session.queue_admitted_total");
  closed_ = registry_->counter("session.closed_total");
  reaped_ = registry_->counter("session.reaped_total");
  events_ = registry_->counter("session.events_total");
  deferred_events_ = registry_->counter("session.deferred_events_total");
  page_turns_ = registry_->counter("session.page_turns_total");
  opens_ = registry_->counter("session.opens_total");
  searches_ = registry_->counter("session.searches_total");
  appends_ = registry_->counter("session.appends_total");
  link_waits_ = registry_->counter("session.link_waits_total");
  budget_deferred_ = registry_->counter("session.budget_deferred_total");
  plan_invalidations_ =
      registry_->counter("session.plan_invalidations_total");
  active_gauge_ = registry_->gauge("session.active");
  queued_gauge_ = registry_->gauge("session.queued");
  page_turn_us_ = registry_->histogram("session.page_turn_us");
  open_us_ = registry_->histogram("session.open_us");
  search_us_ = registry_->histogram("session.search_us");
  append_us_ = registry_->histogram("session.append_us");
}

SessionManager::~SessionManager() = default;

void SessionManager::SetTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  store_->SetTracer(tracer);
}

void SessionManager::SetTaskPool(runtime::TaskPool* pool) {
  pool_ = pool != nullptr ? pool : &inline_pool_;
  store_->SetTaskPool(pool);
  queue_->SetTaskPool(pool, [this](uint64_t object_id) {
    return store_->PrefetchAffinity(object_id);
  });
}

void SessionManager::SetAppendHandler(AppendHandler handler) {
  append_ = std::move(handler);
}

SessionManager::Session* SessionManager::Find(SessionId id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

const SessionManager::Session* SessionManager::Find(SessionId id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

SessionId SessionManager::Open(std::string profile) {
  const SessionId id = next_id_++;
  Session s;
  s.id = id;
  s.profile = std::move(profile);
  s.last_activity = clock_->Now();
  auto [it, inserted] = sessions_.emplace(id, std::move(s));
  (void)inserted;
  opened_->Increment();
  if (active_count_ < options_.max_concurrent) {
    Admit(it->second);
  } else {
    admission_queue_.push_back(id);
    admission_queued_->Increment();
  }
  active_gauge_->Set(static_cast<double>(active_count_));
  queued_gauge_->Set(static_cast<double>(queued_count()));
  return id;
}

void SessionManager::Admit(Session& s) {
  s.state = SessionState::kIdle;
  s.admitted_at = clock_->Now();
  ++active_count_;
  admitted_->Increment();
  if (tracer_ != nullptr) {
    // Explicit-invalid parent: the root must not join whatever ambient
    // span the caller has open, and thousands of concurrent session
    // roots cannot share the ambient stack. SetSampleRate decides here:
    // a suppressed root leaves root_ctx invalid and the whole session
    // records nothing.
    s.root = tracer_->StartSpan("session#" + std::to_string(s.id),
                                obs::TraceContext{});
    s.root_ctx = s.root->context();
  }
}

void SessionManager::AdmitFromQueue(Micros now) {
  while (active_count_ < options_.max_concurrent &&
         !admission_queue_.empty()) {
    const SessionId id = admission_queue_.front();
    admission_queue_.pop_front();
    Session* s = Find(id);
    if (s == nullptr || s->state != SessionState::kQueued) continue;
    Admit(*s);
    s->last_activity = now;  // Fresh slot: the idle clock starts now.
    queue_admitted_->Increment();
  }
}

void SessionManager::ReapIdle(Micros now) {
  for (auto& [id, s] : sessions_) {
    if (s.state == SessionState::kQueued ||
        s.state == SessionState::kClosed) {
      continue;
    }
    if (now - s.last_activity >= options_.idle_deadline_us) {
      CloseSession(s, /*reaped=*/true);
    }
  }
}

void SessionManager::CloseSession(Session& s, bool reaped) {
  if (s.state == SessionState::kClosed) return;
  const bool was_active = s.state != SessionState::kQueued;
  if (was_active) {
    ReleaseLeases(s);
    queue_->CancelOwner(s.id);
    if (s.root.has_value()) {
      if (reaped) s.root->AddTag("reaped", "1");
      s.root->End();
    }
    if (s.root_ctx.valid()) {
      traced_active_us_ +=
          std::max<Micros>(0, clock_->Now() - s.admitted_at);
    }
    --active_count_;
    (reaped ? reaped_ : closed_)->Increment();
  } else {
    closed_->Increment();
  }
  s.state = SessionState::kClosed;
  s.root.reset();
  s.delivered.clear();
  s.plan.reset();
  s.object = 0;
}

bool SessionManager::AcquireLease(Session& s, uint64_t affinity) {
  if (s.leases.count(affinity) > 0) return true;
  int& in_use = lease_use_[affinity];
  if (in_use >= options_.streams_per_shard) return false;
  ++in_use;
  s.leases.insert(affinity);
  return true;
}

void SessionManager::ReleaseLeases(Session& s) {
  for (uint64_t affinity : s.leases) {
    auto it = lease_use_.find(affinity);
    if (it != lease_use_.end() && it->second > 0) --it->second;
  }
  s.leases.clear();
}

int SessionManager::EffectiveStride(const Session& s) const {
  const double rounded = std::round(s.stride_ewma);
  int stride = static_cast<int>(rounded);
  if (stride == 0) stride = s.stride_ewma >= 0 ? 1 : -1;
  return std::clamp(stride, -16, 16);
}

void SessionManager::LearnStride(Session& s, int delta) {
  if (delta == 0) return;
  // EWMA over observed cursor movement: a skimmer turning 3 pages at a
  // time converges to stride 3 within a few turns, a reader stays at 1,
  // so speculation targets the pages this user will actually visit —
  // the learned replacement for a fixed pages-ahead radius.
  s.stride_ewma = 0.7 * s.stride_ewma + 0.3 * static_cast<double>(delta);
}

StatusOr<SessionManager::PlanRef> SessionManager::EnsurePlan(
    storage::ObjectId object, const obs::TraceContext& ctx) {
  {
    std::lock_guard<std::mutex> lock(plans_mu_);
    auto it = plans_.find(object);
    if (it != plans_.end()) return it->second;
  }
  MINOS_ASSIGN_OR_RETURN(
      object::MultimediaObject obj,
      store_->Fetch(object, server::FetchGranularity::kSkeleton, ctx));
  auto plan = std::make_shared<const server::PagePlan>(obj.descriptor());
  std::lock_guard<std::mutex> lock(plans_mu_);
  // A task staging another shard may have built it meanwhile: the
  // first plan cached wins.
  return plans_.emplace(object, std::move(plan)).first->second;
}

void SessionManager::InvalidateObject(storage::ObjectId object) {
  {
    std::lock_guard<std::mutex> lock(plans_mu_);
    plans_.erase(object);
  }
  plan_invalidations_->Increment();
  // Appended content re-apportions every page's byte ranges, so staged
  // speculation for the object — whoever owns it — is stale, and every
  // reading session re-delivers against the fresh plan.
  queue_->CancelObject(object);
  for (auto& [id, s] : sessions_) {
    if (s.object == object) {
      s.delivered.clear();
      s.plan.reset();
    }
  }
}

Status SessionManager::StagePage(Session& s, int page,
                                 const obs::TraceContext& ctx) {
  MINOS_ASSIGN_OR_RETURN(PlanRef plan, EnsurePlan(s.object, ctx));
  s.page_count = plan->page_count();
  if (s.plan != plan) {
    s.delivered.clear();
    s.plan = std::move(plan);
  }
  if (s.page_count == 0) return Status::OK();
  if (page > s.page_count) {
    page = s.page_count;
    s.page = page;
  }
  return DeliverPage(s.object, *s.plan, page, ctx);
}

Status SessionManager::DeliverPage(storage::ObjectId object,
                                   const server::PagePlan& plan, int page,
                                   const obs::TraceContext& ctx) {
  MINOS_ASSIGN_OR_RETURN(
      const uint64_t bytes,
      server::StageRanges(store_, object,
                          plan.Ranges(/*audio=*/false, page, 0), ctx));
  if (bytes == 0) return Status::OK();
  server::Link* link = store_->RouteLink(object);
  if (link == nullptr) return Status::OK();
  return link->Transfer(bytes, ctx).status();
}

void SessionManager::Speculate(Session& s) {
  if (s.object == 0 || s.page_count <= 0 || s.plan == nullptr) return;
  const int stride = EffectiveStride(s);
  for (int k = 1; k <= kSpeculateDepth; ++k) {
    const int p = s.page + stride * k;
    if (p < 1 || p > s.page_count) break;
    if (s.delivered.count(p) > 0) continue;
    const uint64_t bytes = s.plan->Bytes(/*audio=*/false, p, 0);
    if (bytes == 0) continue;
    if (queue_->OutstandingBytes(s.id) + bytes >
        options_.prefetch_budget_bytes) {
      // Over budget: this session stops speculating until its staged
      // entries are consumed. Readers' entries stay untouched.
      budget_deferred_->Increment();
      break;
    }
    server::PrefetchKey key{server::PrefetchKind::kVisualPage, s.object, p,
                            s.id};
    // The work holds the plan it was scheduled against: an append
    // invalidating the object cancels the entry before it can issue.
    queue_->WantPage(
        key, k,
        [this, object = s.object, plan = s.plan, p]() {
          return DeliverPage(object, *plan, p, {});
        },
        bytes);
  }
}

obs::Histogram* SessionManager::ProfileTurnHistogram(
    const std::string& profile) {
  auto it = profile_turn_us_.find(profile);
  if (it == profile_turn_us_.end()) {
    it = profile_turn_us_
             .emplace(profile, registry_->histogram(
                                   "session." + profile + ".page_turn_us"))
             .first;
  }
  return it->second;
}

std::vector<SessionOutcome> SessionManager::PumpEpoch(
    const std::vector<SessionEvent>& events) {
  const Micros now0 = clock_->Now();
  ReapIdle(now0);
  AdmitFromQueue(now0);

  struct Prep {
    bool handled = false;  ///< Outcome settled in the pre-pass.
    bool stage = false;    ///< Needs foreground staging this epoch.
    bool global = false;   ///< Runs in the serial front-end phase.
    int target = 0;        ///< Page to stage.
    Micros consume_us = 0; ///< Prefetch residual paid in the pre-pass.
  };
  std::vector<SessionOutcome> outcomes(events.size());
  std::vector<Prep> prep(events.size());
  std::vector<std::optional<obs::TraceSpan>> spans(events.size());
  std::vector<obs::TraceContext> span_ctx(events.size());
  std::vector<Micros> stage_end(events.size(), 0);
  std::vector<Status> stage_status(events.size(), Status::OK());
  std::vector<uint64_t> group_ids;
  std::vector<std::vector<size_t>> groups;
  std::map<SessionId, size_t> session_group;
  std::vector<size_t> global_events;

  // A session's staging events all ride the group of its first one, so
  // no Session object is ever touched by two concurrent tasks.
  auto assign_group = [&](size_t i, Session& s) {
    size_t g;
    auto it = session_group.find(s.id);
    if (it != session_group.end()) {
      g = it->second;
    } else {
      const uint64_t affinity = store_->PrefetchAffinity(s.object);
      g = 0;
      while (g < group_ids.size() && group_ids[g] != affinity) ++g;
      if (g == group_ids.size()) {
        group_ids.push_back(affinity);
        groups.emplace_back();
      }
      session_group.emplace(s.id, g);
    }
    groups[g].push_back(i);
  };

  // Phase 1: serial pre-pass, in submission order.
  for (size_t i = 0; i < events.size(); ++i) {
    const SessionEvent& ev = events[i];
    SessionOutcome& out = outcomes[i];
    out.session = ev.session;
    out.kind = ev.kind;
    Session* s = Find(ev.session);
    if (s == nullptr || s->state == SessionState::kClosed) {
      out.status = Status::NotFound("no such session");
      prep[i].handled = true;
      continue;
    }
    if (s->state == SessionState::kQueued) {
      if (ev.kind == SessionEvent::Kind::kClose) {
        CloseSession(*s, /*reaped=*/false);
      } else {
        out.status = Status::Unavailable("session queued for admission");
        deferred_events_->Increment();
      }
      prep[i].handled = true;
      continue;
    }
    events_->Increment();
    s->last_activity = now0;
    spans[i] = obs::MaybeStartSpan(tracer_, SpanNameFor(ev.kind),
                                   s->root_ctx);
    span_ctx[i] = obs::ContextOf(spans[i]);
    switch (ev.kind) {
      case SessionEvent::Kind::kSearch:
      case SessionEvent::Kind::kAppend:
      case SessionEvent::Kind::kClose:
        prep[i].global = true;
        global_events.push_back(i);
        break;
      case SessionEvent::Kind::kOpen: {
        const uint64_t affinity = store_->PrefetchAffinity(ev.object);
        if (!AcquireLease(*s, affinity)) {
          // Shard's stream pool exhausted: defer, never drop — the
          // caller resubmits next epoch, by when a close or reap may
          // have released a lease.
          out.status = Status::Unavailable("link lease pool exhausted");
          link_waits_->Increment();
          prep[i].handled = true;
          continue;
        }
        queue_->CancelOwner(s->id);  // Prior object's speculation.
        s->object = ev.object;
        s->page = 1;
        s->page_count = 0;
        s->plan.reset();
        s->delivered.clear();
        s->state = SessionState::kReading;
        opens_->Increment();
        prep[i].stage = true;
        prep[i].target = 1;
        assign_group(i, *s);
        break;
      }
      case SessionEvent::Kind::kPageTurn:
      case SessionEvent::Kind::kJump: {
        if (s->object == 0 || s->state != SessionState::kReading) {
          out.status = Status::FailedPrecondition("no open object");
          prep[i].handled = true;
          continue;
        }
        const int count = std::max(1, s->page_count);
        int target = ev.kind == SessionEvent::Kind::kJump
                         ? ev.page
                         : s->page + ev.delta;
        target = std::clamp(target, 1, count);
        if (ev.kind == SessionEvent::Kind::kJump) {
          const int radius =
              std::max(1, std::abs(EffectiveStride(*s))) * kSpeculateDepth;
          queue_->OnJump(server::PrefetchKey{server::PrefetchKind::kVisualPage,
                                             s->object, target, s->id},
                         radius);
          LearnStride(*s, target - s->page);
        } else {
          LearnStride(*s, ev.delta);
        }
        s->page = target;
        page_turns_->Increment();
        if (s->delivered.count(target) > 0) {
          out.prefetch_hit = true;  // Already at the terminal: free.
          break;
        }
        const server::PrefetchKey key{server::PrefetchKind::kVisualPage,
                                      s->object, target, s->id};
        // Measure the consume (residual wait on a partial hit) in a
        // private frame: concurrent sessions' waits overlap instead of
        // serializing on the base clock.
        SimClock::Frame frame(clock_, now0);
        if (queue_->TakePage(key)) {
          prep[i].consume_us = frame.elapsed();
          s->delivered.insert(target);
          out.prefetch_hit = true;
        } else {
          prep[i].consume_us = frame.elapsed();
          prep[i].stage = true;
          prep[i].target = target;
          assign_group(i, *s);
        }
        break;
      }
    }
  }

  // Phase 2a: foreground staging, one task per shard group.
  std::vector<runtime::TaskPool::Task> tasks;
  tasks.reserve(groups.size());
  for (const std::vector<size_t>& group : groups) {
    tasks.push_back([&] {
      for (size_t i : group) {
        Session& s = *Find(events[i].session);
        stage_status[i] = StagePage(s, prep[i].target, span_ctx[i]);
        // Cumulative offset within the group: later events queue behind
        // earlier ones bound for the same shard arm.
        stage_end[i] = clock_->Now() - now0;
        if (stage_status[i].ok()) s.delivered.insert(prep[i].target);
      }
    });
  }
  pool_->RunEpoch(std::move(tasks));

  // Phase 2b: the serial front-end lane (searches, appends, closes) in
  // one frame — these contend on shared state (query stats, catalog,
  // session table), so they serialize like one server thread would.
  if (!global_events.empty()) {
    Micros front_end_total = 0;
    {
      SimClock::Frame frame(clock_, now0);
      for (size_t i : global_events) {
        const SessionEvent& ev = events[i];
        Session* s = Find(ev.session);
        switch (ev.kind) {
          case SessionEvent::Kind::kSearch: {
            s->state = SessionState::kSearching;
            const std::vector<query::ScoredHit> hits = store_->QueryRanked(
                ev.words, kSearchK, query::QueryMode::kDisjunctive,
                span_ctx[i]);
            outcomes[i].results = hits.size();
            s->state = SessionState::kBrowsing;
            searches_->Increment();
            break;
          }
          case SessionEvent::Kind::kAppend: {
            if (!append_) {
              stage_status[i] = Status::Unsupported("no append handler");
              break;
            }
            stage_status[i] = append_(ev.object, ev.append_text);
            if (stage_status[i].ok()) {
              InvalidateObject(ev.object);
              appends_->Increment();
            }
            break;
          }
          case SessionEvent::Kind::kClose:
            CloseSession(*s, /*reaped=*/false);
            break;
          default:
            break;
        }
        stage_end[i] = frame.now() - now0;
      }
      front_end_total = frame.elapsed();
    }
    clock_->AdvanceTo(now0 + front_end_total);
  }

  // Phase 3: serial post-pass, in submission order.
  Micros max_latency = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (prep[i].handled) continue;
    const SessionEvent& ev = events[i];
    SessionOutcome& out = outcomes[i];
    if (out.status.ok() && !stage_status[i].ok()) {
      out.status = stage_status[i];
    }
    out.latency_us = prep[i].consume_us + stage_end[i];
    max_latency = std::max(max_latency, out.latency_us);
    Session* s = Find(ev.session);
    const double latency = static_cast<double>(out.latency_us);
    switch (ev.kind) {
      case SessionEvent::Kind::kPageTurn:
      case SessionEvent::Kind::kJump:
        page_turn_us_->Record(latency);
        if (s != nullptr) ProfileTurnHistogram(s->profile)->Record(latency);
        break;
      case SessionEvent::Kind::kOpen:
        open_us_->Record(latency);
        break;
      case SessionEvent::Kind::kSearch:
        search_us_->Record(latency);
        break;
      case SessionEvent::Kind::kAppend:
        append_us_->Record(latency);
        break;
      case SessionEvent::Kind::kClose:
        break;
    }
    if (spans[i].has_value()) {
      // The event completed at now0 + latency on its own timeline; a
      // scratch frame pins the end time without advancing the base.
      SimClock::Frame frame(clock_, now0 + out.latency_us);
      spans[i]->End();
    }
    if (out.status.ok() && s != nullptr &&
        s->state == SessionState::kReading &&
        (ev.kind == SessionEvent::Kind::kOpen ||
         ev.kind == SessionEvent::Kind::kPageTurn ||
         ev.kind == SessionEvent::Kind::kJump)) {
      Speculate(*s);
    }
  }
  queue_->Pump();
  clock_->AdvanceTo(now0 + max_latency);
  active_gauge_->Set(static_cast<double>(active_count_));
  queued_gauge_->Set(static_cast<double>(queued_count()));
  return outcomes;
}

SessionState SessionManager::state(SessionId id) const {
  const Session* s = Find(id);
  return s == nullptr ? SessionState::kClosed : s->state;
}

size_t SessionManager::queued_count() const {
  size_t n = 0;
  for (const auto& [id, s] : sessions_) {
    if (s.state == SessionState::kQueued) ++n;
  }
  return n;
}

int SessionManager::stride(SessionId id) const {
  const Session* s = Find(id);
  return s == nullptr ? 1 : EffectiveStride(*s);
}

bool SessionManager::sampled(SessionId id) const {
  const Session* s = Find(id);
  return s != nullptr && s->root_ctx.valid();
}

int SessionManager::page(SessionId id) const {
  const Session* s = Find(id);
  return s == nullptr ? 0 : s->page;
}

int SessionManager::page_count(SessionId id) const {
  const Session* s = Find(id);
  return s == nullptr ? 0 : s->page_count;
}

int SessionManager::lease_count(uint64_t affinity) const {
  auto it = lease_use_.find(affinity);
  return it == lease_use_.end() ? 0 : it->second;
}

}  // namespace minos::session
