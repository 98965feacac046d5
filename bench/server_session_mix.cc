// SRV-2: mixed-session workload at the object server, driven through
// the event-driven SessionManager. N concurrent sessions issue a
// realistic op mix — opens (first-page staging), page turns, ranked
// searches and appends — against one- and four-shard fabrics, and the
// table reports mean response time *by op class*, showing which
// interactions stay interactive under load (the §5 performance concern
// made concrete). One shard serializes every staging miss on a single
// link arm; four shards spread the same sessions by placement, so the
// heavyweight opens get cheaper while prefetch keeps the page turns
// interactive at every scale.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "minos/server/shard_router.h"
#include "minos/session/session_manager.h"
#include "minos/storage/archiver.h"
#include "minos/storage/block_cache.h"
#include "minos/text/formatter.h"
#include "scenario_lib.h"

namespace minos {
namespace {

using storage::ObjectId;

/// One shard's stack: instant device costs, so response times are the
/// link scheduling and session multiplexing this bench is about.
struct ShardStack {
  explicit ShardStack(SimClock* clock)
      : device("shard", 65536, 512, storage::DeviceCostModel::Instant(),
               true, clock),
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

server::ShardPlacement RoundRobin() {
  return [](ObjectId id, size_t shard_count) -> size_t {
    return static_cast<size_t>((id - 1) % shard_count);
  };
}

object::MultimediaObject PagedObject(ObjectId id) {
  object::MultimediaObject obj(id);
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 12;
  obj.SetTextPart(bench::LongReport(10)).ok();
  text::TextFormatter formatter(obj.descriptor().layout);
  const size_t pages = formatter.Paginate(obj.text_part()).value().size();
  for (size_t i = 0; i < pages; ++i) {
    object::VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    obj.descriptor().pages.push_back(page);
  }
  const uint32_t index = obj.AddImage(bench::XrayBitmap(512, 384)).value();
  object::PlacedImage placed;
  placed.image_index = index;
  placed.placement = image::Rect{180, 20, 96, 72};
  obj.descriptor().pages[0].images.push_back(placed);
  obj.Archive().ok();
  return obj;
}

constexpr int kReadObjects = 10;  ///< Objects 11..12 take appends only.
constexpr int kObjects = 12;
constexpr int kEpochs = 12;

struct ClassMeans {
  double sum[4] = {0, 0, 0, 0};  ///< open, turn, search, append (us).
  int n[4] = {0, 0, 0, 0};
  Micros sim_time = 0;  ///< Virtual time the run consumed.

  double Ms(int c) const { return n[c] != 0 ? sum[c] / n[c] / 1000.0 : 0; }
};

/// Runs `users` mixed sessions over a fresh `shards`-shard fabric and
/// returns mean response time per op class.
ClassMeans RunMix(int users, size_t shards) {
  ClassMeans out;
  SimClock clock;
  std::vector<std::unique_ptr<ShardStack>> stacks;
  std::vector<server::ObjectServer*> servers;
  for (size_t i = 0; i < shards; ++i) {
    stacks.push_back(std::make_unique<ShardStack>(&clock));
    servers.push_back(&stacks.back()->server);
  }
  server::ShardRouter router(servers, &clock, RoundRobin(),
                             server::ShardRouterOptions{});
  runtime::TaskPool pool(&clock, bench::Workers());
  router.SetTaskPool(&pool);
  for (ObjectId id = 1; id <= kObjects; ++id) {
    if (!router.Store(PagedObject(id)).ok()) return out;
  }

  session::SessionOptions options;
  options.streams_per_shard = 64;  // One-shard runs pool every lease.
  session::SessionManager manager(&router, &clock, options);
  manager.SetTaskPool(&pool);
  manager.SetAppendHandler([&router](ObjectId id, const std::string& text) {
    server::ObjectServer::AppendParts parts;
    parts.text = text;
    return router.Append(id, parts).status();
  });

  // Session u: class u%4 — reader (turn 1), skimmer (turn 2), searcher,
  // writer. Every session acts every epoch.
  std::vector<session::SessionId> ids(users);
  const char* profiles[4] = {"reader", "skimmer", "searcher", "writer"};
  for (int u = 0; u < users; ++u) {
    ids[u] = manager.Open(profiles[u % 4]);
  }
  for (int e = 0; e < kEpochs; ++e) {
    std::vector<session::SessionEvent> events;
    for (int u = 0; u < users; ++u) {
      session::SessionEvent ev;
      ev.session = ids[u];
      switch (u % 4) {
        case 0:
        case 1:
          if (e == 0) {
            ev.kind = session::SessionEvent::Kind::kOpen;
            ev.object = static_cast<ObjectId>(1 + u % kReadObjects);
          } else {
            ev.kind = session::SessionEvent::Kind::kPageTurn;
            ev.delta = u % 4 == 0 ? 1 : 2;
          }
          break;
        case 2:
          ev.kind = session::SessionEvent::Kind::kSearch;
          ev.words = {(u + e) % 2 == 0 ? "multimedia" : "presentation"};
          break;
        default:
          ev.kind = session::SessionEvent::Kind::kAppend;
          ev.object = static_cast<ObjectId>(kReadObjects + 1 + u % 2);
          ev.append_text =
              "Session note " + std::to_string(e) + " from user " +
              std::to_string(u) + " about the archived presentation.";
          break;
      }
      events.push_back(std::move(ev));
    }
    for (const session::SessionOutcome& o : manager.PumpEpoch(events)) {
      if (!o.status.ok()) continue;
      int c = -1;
      switch (o.kind) {
        case session::SessionEvent::Kind::kOpen:
          c = 0;
          break;
        case session::SessionEvent::Kind::kPageTurn:
          c = 1;
          break;
        case session::SessionEvent::Kind::kSearch:
          c = 2;
          break;
        case session::SessionEvent::Kind::kAppend:
          c = 3;
          break;
        default:
          break;
      }
      if (c >= 0) {
        out.sum[c] += static_cast<double>(o.latency_us);
        ++out.n[c];
      }
    }
    clock.Advance(MillisToMicros(150));
  }
  out.sim_time = clock.Now();
  return out;
}

int Run() {
  bench::PrintHeader("SRV-2",
                     "mixed sessions through the session manager");
  std::printf("%-8s %-8s %-10s %-10s %-10s %-10s\n", "users", "shards",
              "open_ms", "turn_ms", "search_ms", "append_ms");
  double open_1shard_48 = 0, open_4shard_48 = 0;
  Micros total_sim_time = 0;
  for (int users : {4, 16, 48}) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      const ClassMeans m = RunMix(users, shards);
      total_sim_time += m.sim_time;
      std::printf("%-8d %-8zu %-10.1f %-10.1f %-10.1f %-10.1f\n", users,
                  shards, m.Ms(0), m.Ms(1), m.Ms(2), m.Ms(3));
      if (users == 48 && shards == 1) open_1shard_48 = m.Ms(0);
      if (users == 48 && shards == 4) open_4shard_48 = m.Ms(0);
    }
  }
  bench::NoteSimTime(total_sim_time);
  if (!(open_4shard_48 < open_1shard_48)) {
    std::printf("FAIL: 4-shard opens at 48 users (%.1fms) are not cheaper "
                "than 1-shard opens (%.1fms)\n",
                open_4shard_48, open_1shard_48);
    return 1;
  }
  std::printf("gate: sharding cuts 48-user open staging %.1fms -> %.1fms\n",
              open_1shard_48, open_4shard_48);
  std::printf("observation=heavyweight opens queue on the staging links "
              "and spread with the catalog across shards; prefetched page "
              "turns stay interactive at every user count while searches "
              "and appends ride the front-end lane\n");
  return 0;
}

}  // namespace
}  // namespace minos

int main(int argc, char** argv) {
  minos::bench::ParseWorkers(argc, argv);
  return minos::Run();
}
