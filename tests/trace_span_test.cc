#include "minos/obs/trace.h"

#include <utility>

#include "gtest/gtest.h"
#include "minos/obs/metrics.h"
#include "minos/util/clock.h"

namespace minos::obs {
namespace {

TEST(TraceSpanTest, RecordsSimClockDurations) {
  SimClock clock(100);
  Tracer tracer(&clock);
  {
    TraceSpan span = tracer.StartSpan("fetch");
    clock.Advance(250);
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  const SpanRecord& rec = tracer.spans()[0];
  EXPECT_EQ(rec.name, "fetch");
  EXPECT_EQ(rec.start_us, 100);
  EXPECT_EQ(rec.end_us, 350);
  EXPECT_EQ(rec.duration_us(), 250);
  EXPECT_EQ(rec.depth, 0);
  EXPECT_EQ(rec.parent, -1);
  EXPECT_EQ(tracer.open_depth(), 0);
}

TEST(TraceSpanTest, NestedSpansTrackDepthAndParent) {
  SimClock clock;
  Tracer tracer(&clock);
  {
    TraceSpan outer = tracer.StartSpan("open");
    clock.Advance(10);
    {
      TraceSpan inner = tracer.StartSpan("enter");
      EXPECT_EQ(tracer.open_depth(), 2);
      clock.Advance(5);
    }
    clock.Advance(10);
    TraceSpan sibling = tracer.StartSpan("tour");
    clock.Advance(1);
    sibling.End();
  }
  // Records are kept in start order: open, enter, tour.
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].name, "open");
  EXPECT_EQ(tracer.spans()[0].depth, 0);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].name, "enter");
  EXPECT_EQ(tracer.spans()[1].depth, 1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].name, "tour");
  EXPECT_EQ(tracer.spans()[2].depth, 1);
  EXPECT_EQ(tracer.spans()[2].parent, 0);
  // The outer span closed last and covers the whole interval.
  EXPECT_EQ(tracer.spans()[0].duration_us(), 26);
  EXPECT_EQ(tracer.spans()[1].duration_us(), 5);
}

TEST(TraceSpanTest, EndIsIdempotentAndMoveSafe) {
  SimClock clock;
  Tracer tracer(&clock);
  TraceSpan span = tracer.StartSpan("a");
  clock.Advance(3);
  span.End();
  clock.Advance(100);
  span.End();  // No-op.
  TraceSpan moved = std::move(span);
  moved.End();  // Moved-from source already finished; still a no-op.
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].duration_us(), 3);

  // A live span survives a move and finishes exactly once.
  TraceSpan b = tracer.StartSpan("b");
  TraceSpan b2 = std::move(b);
  clock.Advance(7);
  b2.End();
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].duration_us(), 7);
}

TEST(TraceSpanTest, MirrorsDurationsIntoRegistryHistogram) {
  SimClock clock;
  MetricsRegistry registry;
  Tracer tracer(&clock);
  tracer.set_metrics_registry(&registry);
  for (int i = 1; i <= 3; ++i) {
    TraceSpan span = tracer.StartSpan("page_turn");
    clock.Advance(i * 10);
  }
  Histogram* h = registry.histogram("span.page_turn_us");
  EXPECT_EQ(h->count(), 3);
  EXPECT_DOUBLE_EQ(h->sum(), 60.0);
}

TEST(TraceSpanTest, ClearWhileOpenIsSafe) {
  SimClock clock;
  Tracer tracer(&clock);
  TraceSpan span = tracer.StartSpan("orphan");
  tracer.Clear();
  EXPECT_EQ(tracer.open_depth(), 0);
  span.End();  // Must not touch the cleared record list.
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TraceSpanTest, JsonRoundTrip) {
  SimClock clock(7);
  Tracer tracer(&clock);
  {
    TraceSpan outer = tracer.StartSpan("open \"quoted\"");
    clock.Advance(11);
    TraceSpan inner = tracer.StartSpan("enter");
    clock.Advance(2);
    inner.End();
    clock.Advance(1);
  }
  // Every field of every record, in start order, with the quotes in the
  // name escaped.
  EXPECT_EQ(tracer.ToJson(),
            R"({"schema":"minos.trace.v1","dropped_spans":0,"spans":[)"
            R"({"name":"open \"quoted\"","trace_id":1,"span_id":1,)"
            R"("parent_span_id":0,"start_us":7,"end_us":21,"depth":0,)"
            R"("parent":-1},)"
            R"({"name":"enter","trace_id":1,"span_id":2,)"
            R"("parent_span_id":1,"start_us":18,"end_us":20,"depth":1,)"
            R"("parent":0}]})");
}

TEST(TraceSpanTest, NullClockReadsZero) {
  Tracer tracer;
  {
    TraceSpan span = tracer.StartSpan("no_clock");
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].start_us, 0);
  EXPECT_EQ(tracer.spans()[0].end_us, 0);
}

TEST(TraceSpanTest, ExplicitParentIgnoresAmbientStack) {
  SimClock clock;
  Tracer tracer(&clock);
  TraceSpan root = tracer.StartSpan("root");
  const TraceContext root_ctx = root.context();
  TraceSpan ambient = tracer.StartSpan("ambient");
  // Started against root's context while "ambient" is the innermost
  // open ambient span: the explicit parent wins.
  TraceSpan child = tracer.StartSpan("child", root_ctx);
  EXPECT_EQ(child.context().trace_id, root_ctx.trace_id);
  EXPECT_EQ(child.context().parent_span_id, root_ctx.span_id);
  EXPECT_EQ(child.context().depth, root_ctx.depth + 1);
  // ...and the explicit span never joins the ambient stack.
  EXPECT_EQ(tracer.current_context().span_id, ambient.context().span_id);
  child.End();
  ambient.End();
  root.End();

  // An invalid parent context roots a fresh trace.
  TraceSpan fresh = tracer.StartSpan("fresh", TraceContext{});
  EXPECT_NE(fresh.context().trace_id, root_ctx.trace_id);
  EXPECT_EQ(fresh.context().parent_span_id, 0u);
}

TEST(TraceSpanTest, MaybeStartSpanRequiresTracerAndValidContext) {
  SimClock clock;
  Tracer tracer(&clock);
  TraceSpan root = tracer.StartSpan("root");
  EXPECT_FALSE(MaybeStartSpan(nullptr, "x", root.context()).has_value());
  EXPECT_FALSE(MaybeStartSpan(&tracer, "x", TraceContext{}).has_value());
  EXPECT_FALSE(ContextOf(std::nullopt).valid());
  std::optional<TraceSpan> child =
      MaybeStartSpan(&tracer, "x", root.context());
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(child->context().parent_span_id, root.context().span_id);
  EXPECT_TRUE(ContextOf(child).valid());
}

TEST(TraceSpanTest, RingBufferEvictsOldestAndCountsDrops) {
  SimClock clock;
  MetricsRegistry registry;
  Tracer tracer(&clock);
  tracer.set_metrics_registry(&registry);
  tracer.set_capacity(4);
  for (int i = 0; i < 7; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    TraceSpan span = tracer.StartSpan(std::move(name));
    clock.Advance(1);
  }
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.dropped_spans(), 3u);
  EXPECT_EQ(registry.counter("trace.dropped_spans")->value(), 3);
  // OrderedSpans unwinds the ring: oldest surviving record first.
  const std::vector<SpanRecord> ordered = tracer.OrderedSpans();
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_EQ(ordered.front().name, "s3");
  EXPECT_EQ(ordered.back().name, "s6");
  // ToJson serializes the wrapped buffer in the same order and reports
  // the drops in its header.
  EXPECT_EQ(tracer.ToJson(),
            R"({"schema":"minos.trace.v1","dropped_spans":3,"spans":[)"
            R"({"name":"s3","trace_id":4,"span_id":4,"parent_span_id":0,)"
            R"("start_us":3,"end_us":4,"depth":0,"parent":-1,)"
            R"("tags":{"%id":"3"}},)"
            R"({"name":"s4","trace_id":5,"span_id":5,"parent_span_id":0,)"
            R"("start_us":4,"end_us":5,"depth":0,"parent":-1,)"
            R"("tags":{"%id":"4"}},)"
            R"({"name":"s5","trace_id":6,"span_id":6,"parent_span_id":0,)"
            R"("start_us":5,"end_us":6,"depth":0,"parent":-1,)"
            R"("tags":{"%id":"5"}},)"
            R"({"name":"s6","trace_id":7,"span_id":7,"parent_span_id":0,)"
            R"("start_us":6,"end_us":7,"depth":0,"parent":-1,)"
            R"("tags":{"%id":"6"}}]})");
}

TEST(TraceSpanTest, RingEvictionMakesStaleHandlesInert) {
  SimClock clock;
  Tracer tracer(&clock);
  tracer.set_capacity(2);
  TraceSpan old_span = tracer.StartSpan("old");
  {
    TraceSpan a = tracer.StartSpan("a");
    TraceSpan b = tracer.StartSpan("b");  // Evicts "old".
    clock.Advance(5);
  }
  clock.Advance(100);
  old_span.End();     // Record reclaimed: must be a no-op, not a crash.
  old_span.AddTag("late", "1");
  const std::vector<SpanRecord> ordered = tracer.OrderedSpans();
  ASSERT_EQ(ordered.size(), 2u);
  EXPECT_EQ(ordered[0].name, "a");
  EXPECT_EQ(ordered[1].name, "b");
}

// --- Head sampling ----------------------------------------------------

TEST(TraceSamplingTest, RateZeroSuppressesEveryRootCompletely) {
  SimClock clock;
  Tracer tracer(&clock);
  tracer.SetSampleRate(0.0);
  for (int i = 0; i < 3; ++i) {
    TraceSpan root = tracer.StartSpan("root");
    EXPECT_FALSE(root.context().valid());
    clock.Advance(10);
    root.AddTag("k", "v");  // Must be inert, not crash.
    {
      // Ambient children of a suppressed root are suppressed too.
      TraceSpan child = tracer.StartSpan("child");
      EXPECT_FALSE(child.context().valid());
      EXPECT_FALSE(tracer.current_context().valid());
    }
    root.End();
  }
  EXPECT_TRUE(tracer.spans().empty());  // Zero spans, zero orphans.
  EXPECT_EQ(tracer.sampled_out(), 3u);
  EXPECT_EQ(tracer.open_depth(), 0);  // Marker push/pop balanced.
}

TEST(TraceSamplingTest, HalfRateKeepsEveryOtherRootDeterministically) {
  SimClock clock;
  Tracer tracer(&clock);
  tracer.SetSampleRate(0.5);
  std::vector<bool> kept;
  for (int i = 0; i < 6; ++i) {
    TraceSpan root = tracer.StartSpan("root", TraceContext{});
    kept.push_back(root.context().valid());
    root.End();
  }
  // The error accumulator admits the 2nd, 4th, 6th root: exact halves,
  // no randomness, so a replayed scenario samples the same traces.
  EXPECT_EQ(kept, (std::vector<bool>{false, true, false, true, false,
                                     true}));
  EXPECT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.sampled_out(), 3u);
}

TEST(TraceSamplingTest, ValidParentBypassesSamplingAndRateOneKeepsAll) {
  SimClock clock;
  Tracer tracer(&clock);
  TraceSpan admitted = tracer.StartSpan("root");  // Rate 1: kept.
  const TraceContext ctx = admitted.context();
  EXPECT_TRUE(ctx.valid());
  admitted.End();
  tracer.SetSampleRate(0.0);
  // A child of an already-admitted trace always records — its root made
  // the sampling decision for the whole tree.
  TraceSpan child = tracer.StartSpan("child", ctx);
  EXPECT_TRUE(child.context().valid());
  child.End();
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent_span_id, ctx.span_id);
}

TEST(TraceSamplingTest, SuppressedAmbientNestingStaysBalanced) {
  SimClock clock;
  Tracer tracer(&clock);
  tracer.SetSampleRate(0.0);
  {
    TraceSpan a = tracer.StartSpan("a");
    {
      TraceSpan b = tracer.StartSpan("b");
      {
        TraceSpan c = tracer.StartSpan("c");
        EXPECT_FALSE(tracer.current_context().valid());
      }
    }
  }
  EXPECT_EQ(tracer.open_depth(), 0);
  // Suppression markers are not parents: a later admitted root is still
  // a root.
  tracer.SetSampleRate(1.0);
  TraceSpan fresh = tracer.StartSpan("fresh");
  EXPECT_EQ(fresh.context().parent_span_id, 0u);
  fresh.End();
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].depth, 0);
}

TEST(TraceSamplingTest, ClearResetsAccumulatorAndCounter) {
  SimClock clock;
  Tracer tracer(&clock);
  tracer.SetSampleRate(0.5);
  tracer.StartSpan("a").End();  // Suppressed (accumulator at 0.5).
  EXPECT_EQ(tracer.sampled_out(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.sampled_out(), 0u);
  // The accumulator restarted too: the replay makes the same decisions.
  tracer.StartSpan("a").End();
  EXPECT_EQ(tracer.sampled_out(), 1u);
  tracer.StartSpan("b").End();
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(SanitizeSpanNameTest, StripsDigitRunsIntoIdTag) {
  std::string ids;
  EXPECT_EQ(SanitizeSpanName("open#42", &ids), "open#%id");
  EXPECT_EQ(ids, "42");
  ids.clear();
  EXPECT_EQ(SanitizeSpanName("tour#7.page12", &ids), "tour#%id.page%id");
  EXPECT_EQ(ids, "7,12");
  EXPECT_EQ(SanitizeSpanName("no_digits"), "no_digits");
  EXPECT_EQ(SanitizeSpanName("123"), "%id");
}

TEST(TraceSpanTest, MetricCardinalityBoundedAcrossObjectIds) {
  SimClock clock;
  MetricsRegistry registry;
  Tracer tracer(&clock);
  tracer.set_metrics_registry(&registry);
  for (int id = 1; id <= 40; ++id) {
    TraceSpan span = tracer.StartSpan("open#" + std::to_string(id));
    clock.Advance(2);
  }
  // Forty distinct object ids collapse into one histogram; the ids
  // survive as a %id tag on each record instead.
  const MetricsSnapshot snap = registry.Snapshot();
  size_t span_histograms = 0;
  for (const HistogramSummary& h : snap.histograms) {
    if (h.name.rfind("span.", 0) == 0) ++span_histograms;
  }
  EXPECT_EQ(span_histograms, 1u);
  const HistogramSummary* h = snap.FindHistogram("span.open#%id_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 40);
  const std::string* tag = tracer.spans().front().FindTag("%id");
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(*tag, "1");
}

TEST(TraceSpanTest, ToJsonCarriesMetaHeader) {
  SimClock clock;
  Tracer tracer(&clock);
  {
    TraceSpan span = tracer.StartSpan("work");
    clock.Advance(9);
  }
  Tracer::TraceMeta meta;
  meta.bench = "unit \"bench\"";
  meta.measured_us = 9;
  const std::string json = tracer.ToJson(meta);
  EXPECT_NE(json.find("\"schema\":\"minos.trace.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"unit \\\"bench\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"measured_us\":9"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":0"), std::string::npos);
}

TEST(TraceSpanTest, FromJsonRoundTripsTagsAndEscapes) {
  SimClock clock;
  Tracer tracer(&clock);
  {
    TraceSpan span = tracer.StartSpan("fetch \"q\" \\ path");
    span.AddTag("outcome", "ok \"quoted\"");
    span.AddTag("shard", static_cast<int64_t>(2));
    span.AddTag("dir\\key", "a\\b");
    clock.Advance(4);
    // An explicit child carries its parent's trace and span ids.
    TraceSpan child = tracer.StartSpan("io", span.context());
    clock.Advance(1);
  }
  // Quotes and backslashes are escaped in names, tag keys and values;
  // tags keep their insertion order.
  EXPECT_EQ(tracer.ToJson(),
            R"({"schema":"minos.trace.v1","dropped_spans":0,"spans":[)"
            R"({"name":"fetch \"q\" \\ path","trace_id":1,"span_id":1,)"
            R"("parent_span_id":0,"start_us":0,"end_us":5,"depth":0,)"
            R"("parent":-1,"tags":{"outcome":"ok \"quoted\"","shard":"2",)"
            R"("dir\\key":"a\\b"}},)"
            R"({"name":"io","trace_id":1,"span_id":2,"parent_span_id":1,)"
            R"("start_us":4,"end_us":5,"depth":1,"parent":-1}]})");
}

}  // namespace
}  // namespace minos::obs
