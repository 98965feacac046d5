// The event-driven SessionManager: admission control that queues (never
// drops), idle reaping that releases leases and speculation, per-session
// prefetch budgets and owner-aware eviction (one greedy session sheds
// its own pages, never a reader's), learned per-user stride, the writer
// append flow invalidating delivery plans, per-session trace sampling,
// and bit-identical epochs at any task-pool worker count.

#include "minos/session/session_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "minos/obs/trace.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/shard_router.h"
#include "minos/text/formatter.h"
#include "minos/text/markup.h"

namespace minos::session {
namespace {

using object::MultimediaObject;
using object::VisualPageSpec;
using storage::ObjectId;
using Kind = SessionEvent::Kind;

/// One shard's full server stack: its own device, archiver, versions and
/// link, so per-shard behaviour stays independent.
struct ShardStack {
  explicit ShardStack(SimClock* clock)
      : device("shard", 65536, 512, storage::DeviceCostModel::Instant(),
               true, clock),
        cache(256),
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

/// A paged text object; a wider layout packs more bytes per page, so
/// relative page weight between objects is controllable.
MultimediaObject PagedObject(ObjectId id, int paragraphs, int width = 40,
                             int height = 8) {
  MultimediaObject obj(id);
  obj.descriptor().layout.width = width;
  obj.descriptor().layout.height = height;
  std::string markup;
  for (int i = 0; i < paragraphs; ++i) {
    markup += ".PP\nreaders skim long report paragraph number " +
              std::to_string(i) + " with steady browsing cadence\n";
  }
  text::MarkupParser parser;
  auto doc = parser.Parse(markup);
  EXPECT_TRUE(doc.ok());
  EXPECT_TRUE(obj.SetTextPart(std::move(doc).value()).ok());
  text::TextFormatter formatter(obj.descriptor().layout);
  const size_t pages = formatter.Paginate(obj.text_part()).value().size();
  for (size_t i = 0; i < pages; ++i) {
    VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    obj.descriptor().pages.push_back(page);
  }
  EXPECT_TRUE(obj.Archive().ok());
  return obj;
}

SessionEvent Ev(SessionId s, Kind kind) {
  SessionEvent e;
  e.session = s;
  e.kind = kind;
  return e;
}

SessionEvent OpenEv(SessionId s, ObjectId object) {
  SessionEvent e = Ev(s, Kind::kOpen);
  e.object = object;
  return e;
}

SessionEvent TurnEv(SessionId s, int delta) {
  SessionEvent e = Ev(s, Kind::kPageTurn);
  e.delta = delta;
  return e;
}

SessionEvent JumpEv(SessionId s, int page) {
  SessionEvent e = Ev(s, Kind::kJump);
  e.page = page;
  return e;
}

SessionEvent SearchEv(SessionId s, std::vector<std::string> words) {
  SessionEvent e = Ev(s, Kind::kSearch);
  e.words = std::move(words);
  return e;
}

SessionEvent AppendEv(SessionId s, ObjectId object, std::string text) {
  SessionEvent e = Ev(s, Kind::kAppend);
  e.object = object;
  e.append_text = std::move(text);
  return e;
}

/// A manager over a sharded store and a local registry, so session and
/// prefetch counters start from zero.
struct SessionHarness {
  SimClock clock;
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<ShardStack>> stacks;
  std::optional<server::ShardRouter> router;
  std::optional<SessionManager> manager;

  void Build(size_t shards, SessionOptions options = {},
             uint64_t ids_per_shard = 100) {
    for (size_t i = 0; i < shards; ++i) {
      stacks.push_back(std::make_unique<ShardStack>(&clock));
    }
    std::vector<server::ObjectServer*> servers;
    for (auto& stack : stacks) servers.push_back(&stack->server);
    router.emplace(servers, &clock, server::RangePlacement(ids_per_shard),
                   server::ShardRouterOptions{});
    options.registry = &registry;
    if (options.prefetch.registry == nullptr) {
      options.prefetch.registry = &registry;
    }
    manager.emplace(&*router, &clock, options);
  }

  void WireAppend() {
    manager->SetAppendHandler(
        [this](ObjectId id, const std::string& text) {
          server::ObjectServer::AppendParts parts;
          parts.text = text;
          return router->Append(id, parts).status();
        });
  }

  int64_t Count(const std::string& name) {
    return static_cast<int64_t>(registry.counter(name)->value());
  }
};

// --- Admission control -------------------------------------------------

TEST(SessionManagerTest, AdmissionCapQueuesFifoAndNeverDrops) {
  SessionHarness h;
  SessionOptions options;
  options.max_concurrent = 2;
  h.Build(1, options);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 4)).ok());

  const SessionId a = h.manager->Open("reader");
  const SessionId b = h.manager->Open("reader");
  const SessionId c = h.manager->Open("reader");
  (void)b;
  EXPECT_EQ(h.manager->state(c), SessionState::kQueued);
  EXPECT_EQ(h.manager->active_count(), 2u);
  EXPECT_EQ(h.manager->queued_count(), 1u);
  EXPECT_EQ(h.Count("session.admission_queued_total"), 1);

  // An event to the queued session is deferred, never dropped: the
  // caller learns to resubmit.
  auto out = h.manager->PumpEpoch({OpenEv(c, 1)});
  EXPECT_TRUE(out[0].status.IsUnavailable());
  EXPECT_EQ(h.Count("session.deferred_events_total"), 1);
  EXPECT_EQ(h.manager->state(c), SessionState::kQueued);

  // Closing an active session frees a slot; the queue admits FIFO at
  // the next epoch's pre-pass.
  out = h.manager->PumpEpoch({Ev(a, Kind::kClose)});
  EXPECT_TRUE(out[0].status.ok());
  h.manager->PumpEpoch({});
  EXPECT_EQ(h.manager->state(c), SessionState::kIdle);
  EXPECT_EQ(h.manager->active_count(), 2u);
  EXPECT_EQ(h.manager->queued_count(), 0u);
  EXPECT_EQ(h.Count("session.queue_admitted_total"), 1);
}

TEST(SessionManagerTest, QueuedSessionCanCloseWithoutASlot) {
  SessionHarness h;
  SessionOptions options;
  options.max_concurrent = 1;
  h.Build(1, options);
  h.manager->Open("reader");
  const SessionId queued = h.manager->Open("reader");
  ASSERT_EQ(h.manager->state(queued), SessionState::kQueued);
  auto out = h.manager->PumpEpoch({Ev(queued, Kind::kClose)});
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_EQ(h.manager->state(queued), SessionState::kClosed);
  EXPECT_EQ(h.Count("session.closed_total"), 1);
  // The dead entry never consumes the slot later.
  h.manager->PumpEpoch({});
  EXPECT_EQ(h.manager->active_count(), 1u);
}

// --- Open / page-turn flow ---------------------------------------------

TEST(SessionManagerTest, OpenDeliversFirstPageAndLeasesTheShard) {
  SessionHarness h;
  h.Build(1);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 12)).ok());
  const SessionId a = h.manager->Open("reader");
  auto out = h.manager->PumpEpoch({OpenEv(a, 1)});
  ASSERT_TRUE(out[0].status.ok()) << out[0].status.ToString();
  EXPECT_EQ(h.manager->state(a), SessionState::kReading);
  EXPECT_EQ(h.manager->page(a), 1);
  EXPECT_GT(h.manager->page_count(a), 1);
  EXPECT_GT(out[0].latency_us, 0);
  // Affinity of shard 0 is 1; the open leased one stream against it.
  EXPECT_EQ(h.manager->lease_count(1), 1);
  EXPECT_EQ(h.Count("session.opens_total"), 1);
}

TEST(SessionManagerTest, TurnIntoSpeculatedPageIsAPrefetchHit) {
  SessionHarness h;
  h.Build(1);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 12)).ok());
  const SessionId a = h.manager->Open("reader");
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(a, 1)})[0].status.ok());
  // The open speculated pages 2 and 3 (stride 1, depth 2) and the epoch
  // pumped them onto the background channel.
  EXPECT_GT(h.manager->prefetch()->OutstandingBytes(a), 0u);
  h.clock.Advance(MillisToMicros(500));  // The user reads page 1.
  auto out = h.manager->PumpEpoch({TurnEv(a, 1)});
  ASSERT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[0].prefetch_hit);
  EXPECT_EQ(out[0].latency_us, 0);  // Fully overlapped with reading.
  EXPECT_EQ(h.manager->page(a), 2);
}

TEST(SessionManagerTest, TurnWithoutAnOpenObjectFailsPrecondition) {
  SessionHarness h;
  h.Build(1);
  const SessionId a = h.manager->Open("reader");
  auto out = h.manager->PumpEpoch({TurnEv(a, 1)});
  EXPECT_TRUE(out[0].status.IsFailedPrecondition());
}

// --- Idle reaping ------------------------------------------------------

TEST(SessionManagerTest, IdleReapReleasesLeasesAndSpeculation) {
  SessionHarness h;
  SessionOptions options;
  options.idle_deadline_us = MillisToMicros(500);
  h.Build(1, options);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 12)).ok());
  const SessionId a = h.manager->Open("reader");
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(a, 1)})[0].status.ok());
  ASSERT_EQ(h.manager->lease_count(1), 1);
  ASSERT_GT(h.manager->prefetch()->OutstandingBytes(a), 0u);

  h.clock.Advance(MillisToMicros(600));  // Past the idle deadline.
  h.manager->PumpEpoch({});
  EXPECT_EQ(h.manager->state(a), SessionState::kClosed);
  EXPECT_EQ(h.Count("session.reaped_total"), 1);
  EXPECT_EQ(h.manager->active_count(), 0u);
  // Every resource came back: the shard lease and the speculative
  // footprint (ready entries die wasted, queued die cancelled).
  EXPECT_EQ(h.manager->lease_count(1), 0);
  EXPECT_EQ(h.manager->prefetch()->OutstandingBytes(a), 0u);

  // Events after the reap answer NotFound-like, not crash: the state
  // machine is terminal.
  auto out = h.manager->PumpEpoch({TurnEv(a, 1)});
  EXPECT_TRUE(out[0].status.IsNotFound());
}

TEST(SessionManagerTest, ReapWithInflightSpeculationCancelsCleanly) {
  SessionHarness h;
  SessionOptions options;
  options.idle_deadline_us = MillisToMicros(200);
  h.Build(1, options);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 12)).ok());
  const SessionId a = h.manager->Open("reader");
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(a, 1)})[0].status.ok());
  // Issue the staged work so entries sit ready-but-unconsumed, then
  // reap while that "inflight" speculation is still booked.
  h.manager->prefetch()->Pump();
  ASSERT_GT(h.manager->prefetch()->ready_count(), 0u);
  h.clock.Advance(MillisToMicros(300));
  h.manager->PumpEpoch({});
  EXPECT_EQ(h.manager->state(a), SessionState::kClosed);
  EXPECT_EQ(h.manager->prefetch()->ready_count(), 0u);
  EXPECT_EQ(h.manager->prefetch()->queued_count(), 0u);
  EXPECT_EQ(h.manager->prefetch()->OutstandingBytes(a), 0u);
  // The cancelled pages count wasted — they were staged and never read.
  EXPECT_GT(h.Count("prefetch.wasted"), 0);
}

// --- Prefetch budgets and owner-aware eviction -------------------------

TEST(SessionManagerTest, ZeroBudgetDefersAllSpeculation) {
  SessionHarness h;
  SessionOptions options;
  options.prefetch_budget_bytes = 0;
  h.Build(1, options);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 12)).ok());
  const SessionId a = h.manager->Open("reader");
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(a, 1)})[0].status.ok());
  EXPECT_EQ(h.manager->prefetch()->OutstandingBytes(a), 0u);
  EXPECT_GT(h.Count("session.budget_deferred_total"), 0);
  // The session still works — page turns just pay the foreground cost.
  h.clock.Advance(MillisToMicros(100));
  auto out = h.manager->PumpEpoch({TurnEv(a, 1)});
  ASSERT_TRUE(out[0].status.ok());
  EXPECT_FALSE(out[0].prefetch_hit);
  EXPECT_GT(out[0].latency_us, 0);
}

TEST(SessionManagerTest, GreedySessionEvictsItsOwnPagesNeverAReaders) {
  SessionHarness h;
  SessionOptions options;
  options.prefetch.ready_capacity = 2;
  h.Build(1, options);
  // The reader's object has light pages; the skimmer's object packs
  // several times the bytes per page (wider layout), so the skimmer is
  // always the fattest owner in the ready set.
  ASSERT_TRUE(h.router->Store(PagedObject(1, 12, 40, 8)).ok());
  ASSERT_TRUE(h.router->Store(PagedObject(2, 24, 100, 40)).ok());

  const SessionId reader = h.manager->Open("reader");
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(reader, 1)})[0].status.ok());
  h.clock.Advance(MillisToMicros(400));  // Reader's pages 2,3 go ready.

  const SessionId skimmer = h.manager->Open("skimmer");
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(skimmer, 2)})[0].status.ok());
  h.clock.Advance(MillisToMicros(400));
  h.manager->prefetch()->Pump();  // Skimmer's pages go ready too.

  // Four ready entries against a capacity of two: both evictions come
  // out of the skimmer's own (fatter) footprint.
  EXPECT_LE(h.manager->prefetch()->ready_count(), 2u);
  EXPECT_GT(h.manager->prefetch()->OutstandingBytes(reader), 0u);

  // The reader's staged page survived the skimmer's flood: its next
  // turn is still a free hit.
  auto out = h.manager->PumpEpoch({TurnEv(reader, 1)});
  ASSERT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[0].prefetch_hit);
  EXPECT_EQ(out[0].latency_us, 0);
}

// --- Learned stride ----------------------------------------------------

TEST(SessionManagerTest, StrideLearnsTheSkimmersCadence) {
  SessionHarness h;
  h.Build(1);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 80)).ok());
  const SessionId a = h.manager->Open("skimmer");
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(a, 1)})[0].status.ok());
  ASSERT_GE(h.manager->page_count(a), 20);
  EXPECT_EQ(h.manager->stride(a), 1);  // Everyone starts as a reader.

  // Four three-page turns converge the EWMA onto stride 3.
  for (int turn = 0; turn < 4; ++turn) {
    h.clock.Advance(MillisToMicros(300));
    ASSERT_TRUE(h.manager->PumpEpoch({TurnEv(a, 3)})[0].status.ok());
  }
  EXPECT_EQ(h.manager->stride(a), 3);

  // Speculation now targets cursor + 3 (not the fixed next page), so
  // the skimmer's next turn lands on a staged page.
  h.clock.Advance(MillisToMicros(300));
  auto out = h.manager->PumpEpoch({TurnEv(a, 3)});
  ASSERT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[0].prefetch_hit);
}

TEST(SessionManagerTest, JumpCancelsOnlyOwnOutOfRadiusSpeculation) {
  SessionHarness h;
  h.Build(1);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 80)).ok());
  ASSERT_TRUE(h.router->Store(PagedObject(2, 80)).ok());
  const SessionId a = h.manager->Open("reader");
  const SessionId b = h.manager->Open("reader");
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(a, 1)})[0].status.ok());
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(b, 2)})[0].status.ok());
  ASSERT_GE(h.manager->page_count(a), 20);
  ASSERT_GT(h.manager->prefetch()->OutstandingBytes(a), 0u);
  const uint64_t b_bytes = h.manager->prefetch()->OutstandingBytes(b);
  ASSERT_GT(b_bytes, 0u);

  // A jumps far away: its near-cursor speculation is stale and dies,
  // B's entries are untouched.
  h.clock.Advance(MillisToMicros(100));
  auto out = h.manager->PumpEpoch({JumpEv(a, 20)});
  ASSERT_TRUE(out[0].status.ok());
  EXPECT_EQ(h.manager->page(a), 20);
  EXPECT_EQ(h.manager->prefetch()->OutstandingBytes(b), b_bytes);
}

// --- The writer flow ---------------------------------------------------

TEST(SessionManagerTest, AppendInvalidatesPlansAndForcesRedelivery) {
  SessionHarness h;
  h.Build(1);
  h.WireAppend();
  ASSERT_TRUE(h.router->Store(PagedObject(1, 12)).ok());
  const SessionId reader = h.manager->Open("reader");
  const SessionId writer = h.manager->Open("writer");
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(reader, 1)})[0].status.ok());

  // Page 1 is at the terminal: revisiting it is free.
  h.clock.Advance(MillisToMicros(100));
  auto out = h.manager->PumpEpoch({JumpEv(reader, 1)});
  ASSERT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[0].prefetch_hit);

  out = h.manager->PumpEpoch(
      {AppendEv(writer, 1, " appended words change every page")});
  ASSERT_TRUE(out[0].status.ok()) << out[0].status.ToString();
  EXPECT_EQ(h.Count("session.appends_total"), 1);
  EXPECT_EQ(h.Count("session.plan_invalidations_total"), 1);
  // The reader's speculative footprint for the object died with the
  // plan — stale ranges must never be delivered.
  EXPECT_EQ(h.manager->prefetch()->OutstandingBytes(reader), 0u);

  // The appended text re-apportioned every page, so the "delivered"
  // page 1 is stale and gets re-staged against the fresh plan.
  h.clock.Advance(MillisToMicros(100));
  out = h.manager->PumpEpoch({JumpEv(reader, 1)});
  ASSERT_TRUE(out[0].status.ok());
  EXPECT_FALSE(out[0].prefetch_hit);
  EXPECT_GT(out[0].latency_us, 0);
}

TEST(SessionManagerTest, AppendWithoutAHandlerIsUnsupported) {
  SessionHarness h;
  h.Build(1);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 4)).ok());
  const SessionId a = h.manager->Open("writer");
  auto out = h.manager->PumpEpoch({AppendEv(a, 1, "x")});
  EXPECT_TRUE(out[0].status.IsUnsupported());
}

// --- Search ------------------------------------------------------------

TEST(SessionManagerTest, SearchReturnsRankedHitsAndEntersBrowsing) {
  SessionHarness h;
  h.Build(2, {}, 2);
  for (ObjectId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(h.router->Store(PagedObject(id, 6)).ok());
  }
  const SessionId a = h.manager->Open("searcher");
  auto out = h.manager->PumpEpoch({SearchEv(a, {"paragraph"})});
  ASSERT_TRUE(out[0].status.ok());
  EXPECT_GT(out[0].results, 0u);
  EXPECT_GT(out[0].latency_us, 0);
  EXPECT_EQ(h.manager->state(a), SessionState::kBrowsing);
  EXPECT_EQ(h.Count("session.searches_total"), 1);
}

// --- Trace sampling ----------------------------------------------------

TEST(SessionManagerTest, SampledOutSessionsRecordNothing) {
  SessionHarness h;
  h.Build(1);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 8)).ok());
  obs::Tracer tracer(&h.clock);
  tracer.SetSampleRate(0.0);
  h.manager->SetTracer(&tracer);
  const SessionId a = h.manager->Open("reader");
  EXPECT_FALSE(h.manager->sampled(a));
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(a, 1)})[0].status.ok());
  h.clock.Advance(MillisToMicros(100));
  h.manager->PumpEpoch({TurnEv(a, 1)});
  h.manager->PumpEpoch({Ev(a, Kind::kClose)});
  // Zero spans — not a truncated tree, not orphans. And the sampled
  // lifetime total ignores the unsampled session entirely.
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_GT(tracer.sampled_out(), 0u);
  EXPECT_EQ(h.manager->traced_active_us(), 0);
}

TEST(SessionManagerTest, SampledSessionRootsOneConnectedSpanTree) {
  SessionHarness h;
  h.Build(1);
  ASSERT_TRUE(h.router->Store(PagedObject(1, 8)).ok());
  obs::Tracer tracer(&h.clock);
  h.manager->SetTracer(&tracer);
  const SessionId a = h.manager->Open("reader");
  EXPECT_TRUE(h.manager->sampled(a));
  ASSERT_TRUE(h.manager->PumpEpoch({OpenEv(a, 1)})[0].status.ok());
  h.clock.Advance(MillisToMicros(100));
  h.manager->PumpEpoch({TurnEv(a, 1)});
  h.manager->PumpEpoch({Ev(a, Kind::kClose)});
  EXPECT_GT(h.manager->traced_active_us(), 0);

  // One root (the session), and every other span's parent exists: the
  // whole session is one connected tree.
  ASSERT_FALSE(tracer.spans().empty());
  std::set<uint64_t> ids;
  for (const obs::SpanRecord& rec : tracer.spans()) ids.insert(rec.span_id);
  size_t roots = 0;
  for (const obs::SpanRecord& rec : tracer.spans()) {
    if (rec.parent_span_id == 0) {
      ++roots;
      EXPECT_EQ(rec.name, "session#" + std::to_string(a));
    } else {
      EXPECT_TRUE(ids.count(rec.parent_span_id) > 0)
          << rec.name << " is an orphan";
    }
  }
  EXPECT_EQ(roots, 1u);
}

// --- Worker-count determinism ------------------------------------------

/// FNV-1a fold of one 64-bit value into a running digest.
uint64_t Mix(uint64_t digest, uint64_t value) {
  return (digest ^ value) * 0x100000001b3ULL;
}

struct StormResult {
  Micros elapsed = 0;
  uint64_t digest = 0;
  std::map<std::string, int64_t> counters;
};

/// A fixed mixed-session storm against a fresh three-shard fabric on a
/// `workers`-thread pool. Every field must be bit-identical across
/// worker counts.
StormResult RunStorm(int workers) {
  SessionHarness h;
  SessionOptions options;
  options.max_concurrent = 12;
  options.idle_deadline_us = MillisToMicros(900);
  h.Build(3, options, 4);
  h.WireAppend();
  for (ObjectId id = 1; id <= 12; ++id) {
    EXPECT_TRUE(h.router->Store(PagedObject(id, 10)).ok());
  }
  runtime::TaskPool pool(&h.clock, workers);
  h.manager->SetTaskPool(&pool);

  std::vector<SessionId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(
        h.manager->Open(i % 3 == 0 ? "skimmer" : "reader"));
  }
  StormResult out;
  auto fold = [&](const std::vector<SessionOutcome>& outcomes) {
    for (const SessionOutcome& o : outcomes) {
      out.digest = Mix(out.digest, static_cast<uint64_t>(o.status.code()));
      out.digest = Mix(out.digest, static_cast<uint64_t>(o.latency_us));
      out.digest = Mix(out.digest, o.prefetch_hit ? 1 : 0);
      out.digest = Mix(out.digest, o.results);
    }
  };

  std::vector<SessionEvent> opens;
  // Session 15 stays idle for the reap; 12..14 start queued.
  for (int i = 0; i < 12; ++i) {
    opens.push_back(OpenEv(ids[static_cast<size_t>(i)],
                           static_cast<ObjectId>(i % 12 + 1)));
  }
  fold(h.manager->PumpEpoch(opens));
  for (int epoch = 0; epoch < 6; ++epoch) {
    h.clock.Advance(MillisToMicros(200));
    std::vector<SessionEvent> events;
    for (int i = 0; i < 11; ++i) {
      const SessionId s = ids[static_cast<size_t>(i)];
      if (epoch == 2 && i == 4) {
        events.push_back(SearchEv(s, {"paragraph"}));
      } else if (epoch == 3 && i == 7) {
        events.push_back(AppendEv(s, 5, " storm append"));
      } else if (epoch == 4 && i < 2) {
        events.push_back(Ev(s, Kind::kClose));
      } else if (epoch >= 4 && i < 2) {
        continue;  // Closed sessions stay silent.
      } else if (i % 4 == 3) {
        events.push_back(JumpEv(s, (epoch * (i + 3)) % 7 + 1));
      } else {
        events.push_back(TurnEv(s, i % 3 == 0 ? 3 : 1));
      }
    }
    fold(h.manager->PumpEpoch(events));
  }
  out.elapsed = h.clock.Now();
  for (const auto& [name, value] : h.registry.Snapshot().counters) {
    if (value != 0) out.counters[name] = value;
  }
  return out;
}

TEST(SessionManagerTest, StormIsBitIdenticalAcrossWorkerCounts) {
  const StormResult base = RunStorm(1);
  ASSERT_TRUE(base.counters.count("session.reaped_total") > 0);
  ASSERT_TRUE(base.counters.count("session.admission_queued_total") > 0);
  for (int workers : {0, 2, 4}) {
    const StormResult run = RunStorm(workers);
    EXPECT_EQ(run.elapsed, base.elapsed) << workers << " workers";
    EXPECT_EQ(run.digest, base.digest) << workers << " workers";
    EXPECT_EQ(run.counters, base.counters) << workers << " workers";
  }
}

}  // namespace
}  // namespace minos::session
