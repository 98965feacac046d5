#include "probes.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "corpus.h"
#include "minos/core/page_compositor.h"
#include "minos/image/miniature.h"
#include "minos/object/part_codec.h"
#include "minos/obs/metrics.h"
#include "minos/obs/trace.h"
#include "minos/query/query_engine.h"
#include "minos/query/scored_index.h"
#include "minos/render/screen.h"
#include "minos/runtime/task_pool.h"
#include "minos/server/prefetch.h"
#include "minos/storage/block_cache.h"
#include "minos/util/coding.h"

namespace perfbench {
namespace {

using minos::Random;
using minos::Status;

/// Median over `batches` of the host nanoseconds one call of `fn` takes,
/// each batch running `calls` calls back to back.
template <typename Fn>
double NsPerCall(int batches, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double t0 = HostSeconds();
    for (int c = 0; c < calls; ++c) fn(c);
    per_call.push_back((HostSeconds() - t0) * 1e9 / calls);
  }
  return Median(per_call);
}

/// Keeps a computed value alive so the optimizer cannot drop the call.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

void CodecProbes(std::map<std::string, Metric>* out) {
  Random rng(11);
  const minos::object::MultimediaObject obj = PagedReport(1, rng, 24, 2);
  const size_t object_bytes = obj.SerializeArchived().value().size();
  const double serialize_ns = NsPerCall(5, 8, [&](int) {
    auto bytes = obj.SerializeArchived();
    Keep(bytes);
  });
  (*out)["codec.serialize_mb_s"] = {
      static_cast<double>(object_bytes) / serialize_ns * 1e3, "MB/s"};

  const std::string encoded = minos::object::EncodeDocument(obj.text_part());
  const double decode_ns = NsPerCall(5, 16, [&](int) {
    auto doc = minos::object::DecodeDocument(encoded);
    Keep(doc);
  });
  (*out)["codec.decode_mb_s"] = {
      static_cast<double>(encoded.size()) / decode_ns * 1e3, "MB/s"};

  std::string buffer(1 << 20, '\0');
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>(rng.Uniform(256));
  }
  const double crc_ns = NsPerCall(5, 4, [&](int) {
    const uint32_t crc = minos::Crc32(buffer);
    Keep(crc);
  });
  (*out)["codec.crc32_mb_s"] = {
      static_cast<double>(buffer.size()) / crc_ns * 1e3, "MB/s"};
}

void CacheProbes(std::map<std::string, Metric>* out) {
  constexpr size_t kBlocks = 4096;
  const std::string payload(512, 'b');
  for (size_t stripes : {size_t{1}, size_t{8}}) {
    minos::obs::MetricsRegistry reg;
    minos::storage::BlockCache cache(kBlocks, &reg, stripes);
    for (size_t b = 0; b < kBlocks; ++b) cache.Insert(b, payload);
    std::string block;
    const double lookup_ns = NsPerCall(5, 20000, [&](int c) {
      const bool hit =
          cache.Lookup(static_cast<uint64_t>((c * 7919) % kBlocks), &block);
      Keep(hit);
    });
    uint64_t next = kBlocks;
    const double insert_ns =
        NsPerCall(5, 20000, [&](int) { cache.Insert(next++, payload); });
    const std::string suffix = ".s" + std::to_string(stripes);
    (*out)["cache.lookup_ns" + suffix] = {lookup_ns, "ns"};
    (*out)["cache.insert_ns" + suffix] = {insert_ns, "ns"};
  }
}

void QueryProbes(std::map<std::string, Metric>* out) {
  // A 100k-object catalog built through the incremental Append path; the
  // top-k probe runs when the catalog passes 10k and again at 100k.
  namespace query = minos::query;
  Random rng(1986);
  constexpr uint64_t kVocab = 800;
  query::ScoredIndex index;
  const query::QueryEngine engine({}, query::ScoringStrategy::kMaxScore);
  const std::vector<std::string> words = {VocabWord(2), VocabWord(431),
                                          VocabWord(797)};
  double append_seconds = 0;
  size_t appended = 0;
  for (size_t target : {size_t{10000}, size_t{100000}}) {
    std::vector<query::AppendedContent> batch;
    for (size_t id = appended + 1; id <= target; ++id) {
      query::AppendedContent content;
      const uint64_t n = 6 + rng.Uniform(18);
      for (uint64_t w = 0; w < n; ++w) {
        content.text += VocabWord(SkewedIndex(rng, kVocab)) + " ";
      }
      batch.push_back(std::move(content));
    }
    const double t0 = HostSeconds();
    for (const query::AppendedContent& content : batch) {
      index.Append(++appended, content, 0.0);
    }
    append_seconds += HostSeconds() - t0;
    const double topk_ns = NsPerCall(5, 4, [&](int) {
      auto result = engine.TopK(index, index, words, 10,
                                query::QueryMode::kDisjunctive);
      Keep(result);
    });
    (*out)[target == 10000 ? "query.topk_us.10k" : "query.topk_us.100k"] =
        {topk_ns / 1e3, "us"};
  }
  (*out)["query.index_append_us"] = {
      append_seconds * 1e6 / static_cast<double>(appended), "us"};
}

/// One worker only: repeated epochs on a pool of two or more threads
/// can deadlock (see main.cc), which a probe must never risk.
void RuntimeProbes(std::map<std::string, Metric>* out) {
  constexpr int kTasks = 64;
  minos::SimClock clock;
  minos::runtime::TaskPool pool(&clock, 1);
  const double epoch_ns = NsPerCall(5, 40, [&](int) {
    std::vector<minos::runtime::TaskPool::Task> tasks(kTasks, [] {});
    pool.RunEpoch(std::move(tasks));
  });
  (*out)["runtime.epoch_us_per_task.w1"] = {epoch_ns / kTasks / 1e3, "us"};
}

void ObsProbes(std::map<std::string, Metric>* out) {
  minos::WallClock wall;
  minos::obs::Tracer tracer(&wall);
  tracer.set_capacity(4096);
  minos::obs::TraceSpan root = tracer.StartSpan("probe.root",
                                                minos::obs::TraceContext{});
  const minos::obs::TraceContext ctx = root.context();
  (*out)["obs.span_ns"] = {NsPerCall(5, 20000,
                                     [&](int) {
                                       minos::obs::TraceSpan span =
                                           tracer.StartSpan("probe.span", ctx);
                                       span.End();
                                     }),
                           "ns"};
  root.End();

  minos::obs::MetricsRegistry reg;
  minos::obs::Counter* counter = reg.counter("probe.counter");
  (*out)["obs.counter_ns"] = {
      NsPerCall(5, 200000, [&](int) { counter->Increment(); }), "ns"};
  (*out)["obs.counter_lookup_ns"] = {
      NsPerCall(5, 50000,
                [&](int) { reg.counter("probe.counter")->Increment(); }),
      "ns"};
}

/// PrefetchQueue::Pump with `entries` live entries and ready_capacity at
/// a quarter of them, so every pump issues and then evicts.
double PumpUs(size_t entries) {
  minos::SimClock clock;
  minos::obs::MetricsRegistry reg;
  minos::server::PrefetchOptions options;
  options.ready_capacity = std::max<size_t>(1, entries / 4);
  options.max_inflight_per_pump = 16;
  options.registry = &reg;
  minos::server::PrefetchQueue queue(&clock, nullptr, options);
  uint64_t next = 0;
  auto top_up = [&] {
    while (queue.queued_count() + queue.ready_count() < entries) {
      const uint64_t i = next++;
      minos::server::PrefetchKey key{minos::server::PrefetchKind::kVisualPage,
                                     1 + i % 97, static_cast<int>(i),
                                     i % 64};
      queue.WantPage(key, static_cast<int>(i % 7), [] { return Status::OK(); },
                     512);
    }
  };
  const int pumps = entries >= 10000 ? 8 : 32;
  std::vector<double> per_pump;
  for (int batch = 0; batch < 5; ++batch) {
    double seconds = 0;
    for (int p = 0; p < pumps; ++p) {
      top_up();
      const double t0 = HostSeconds();
      queue.Pump();
      seconds += HostSeconds() - t0;
    }
    per_pump.push_back(seconds * 1e6 / pumps);
  }
  return Median(per_pump);
}

void PrefetchProbes(std::map<std::string, Metric>* out) {
  (*out)["prefetch.pump_us.n100"] = {PumpUs(100), "us"};
  (*out)["prefetch.pump_us.n1000"] = {PumpUs(1000), "us"};
  (*out)["prefetch.pump_us.n10000"] = {PumpUs(10000), "us"};
}

void RenderProbes(std::map<std::string, Metric>* out) {
  const minos::image::Image page = SeededBitmap(320, 240, 5);
  (*out)["image.miniature_build_us"] = {
      NsPerCall(5, 20,
                [&](int) {
                  auto mini = minos::image::Miniature::Build(page, 3);
                  Keep(mini);
                }) /
          1e3,
      "us"};

  Random rng(13);
  const minos::object::MultimediaObject obj = PagedReport(1, rng, 4, 1);
  const auto formatted = minos::core::FormatObjectText(obj);
  minos::render::Screen screen;
  minos::core::PageCompositor compositor(&screen);
  const minos::image::Rect region = screen.PageArea();
  (*out)["render.compose_us"] = {
      NsPerCall(5, 20,
                [&](int) {
                  const Status s =
                      compositor.ComposePage(obj, *formatted, 0, region);
                  Keep(s);
                }) /
          1e3,
      "us"};
}

void ServerProbes(std::map<std::string, Metric>* out) {
  minos::SimClock clock;
  minos::obs::MetricsRegistry reg;
  minos::storage::BlockDevice device(
      "probe", 65536, 512, minos::storage::DeviceCostModel::Instant(), true,
      &clock);
  minos::storage::BlockCache cache(8192, &reg);
  minos::storage::Archiver archiver(&device, &cache);
  minos::storage::VersionStore versions;
  minos::server::ObjectServer server(&archiver, &versions, &clock, nullptr);
  Random rng(17);
  if (!server.Store(PagedReport(1, rng, 2, 1)).ok()) std::abort();
  (*out)["server.fetch_miniature_us"] = {
      NsPerCall(5, 10,
                [&](int) {
                  auto card = server.FetchMiniature(1, 96);
                  Keep(card);
                }) /
          1e3,
      "us"};
}

}  // namespace

void RunProbes(std::map<std::string, Metric>* out) {
  CodecProbes(out);
  CacheProbes(out);
  QueryProbes(out);
  RuntimeProbes(out);
  ObsProbes(out);
  PrefetchProbes(out);
  RenderProbes(out);
  ServerProbes(out);
}

}  // namespace perfbench
