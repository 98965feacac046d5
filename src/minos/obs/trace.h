#ifndef MINOS_OBS_TRACE_H_
#define MINOS_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "minos/obs/metrics.h"
#include "minos/util/clock.h"

namespace minos::obs {

/// Propagated identity of a request: which trace a unit of work belongs
/// to and which span is its parent. Threaded explicitly through the
/// shard fabric (Workstation -> ShardRouter -> ObjectServer -> Link /
/// scheduler / retry loop) so that scatter/gather rewinds and background
/// prefetch lanes still attach to the request that caused them — the
/// ambient open-span stack misattributes parents as soon as SimClock
/// RewindTo makes sibling work overlap in time.
///
/// A default-constructed context is invalid (trace_id == 0): components
/// receiving it record no spans, so untraced call paths cost nothing and
/// never produce orphan roots.
struct TraceContext {
  uint64_t trace_id = 0;        ///< 0 = not part of any trace.
  uint64_t span_id = 0;         ///< The span this context represents.
  uint64_t parent_span_id = 0;  ///< That span's own parent (0 = root).
  int depth = 0;                ///< Tree depth of span_id's span.

  bool valid() const { return trace_id != 0; }
};

/// One span. Times come from the tracer's (simulated) clock, so a trace
/// of a presentation session is deterministic and replayable: re-running
/// the same scenario yields byte-identical trace output.
///
/// Linkage is explicit: `span_id` / `parent_span_id` define the tree
/// (parent_span_id == 0 means root). The legacy `depth` / `parent`
/// fields describe the ambient nesting view (`parent` is the start
/// ordinal of the enclosing ambient span, -1 when the span was started
/// with an explicit TraceContext or as a root).
struct SpanRecord {
  std::string name;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  Micros start_us = 0;
  Micros end_us = 0;
  int depth = 0;        ///< 0 = root span.
  int64_t parent = -1;  ///< Start ordinal of enclosing ambient span.
  /// Typed attribution tags (queue wait, link transfer, retry backoff,
  /// shard id, cache hit/miss, degraded, ...), in insertion order.
  std::vector<std::pair<std::string, std::string>> tags;

  Micros duration_us() const { return end_us - start_us; }

  /// First value recorded under `key`, or null when absent.
  const std::string* FindTag(std::string_view key) const;
};

/// Strips per-object identifiers (maximal decimal digit runs) from a
/// span name, replacing each with "%id" — "open#42" becomes "open#%id".
/// Used for the `span.<name>_us` histogram mirror so metric cardinality
/// stays bounded no matter how many distinct objects a session touches.
/// When `ids` is non-null the stripped runs are appended to it,
/// comma-separated.
std::string SanitizeSpanName(std::string_view name,
                             std::string* ids = nullptr);

class TraceSpan;

/// Collects scoped spans against an injected Clock (normally the session
/// SimClock). Two parenting modes:
///
///  - StartSpan(name): ambient — the innermost open ambient span is the
///    parent. Correct for straight-line call stacks.
///  - StartSpan(name, ctx): explicit — the parent is whatever span the
///    propagated TraceContext names; the ambient stack is not consulted
///    and the new span does not join it. Required wherever SimClock
///    rewinds make concurrent work overlap (scatter/gather, prefetch).
///
/// Finished spans optionally feed a `span.<sanitized name>_us`
/// histogram in a MetricsRegistry, so traces and metrics line up on one
/// timeline. Storage is an optional ring buffer (set_capacity) with a
/// `trace.dropped_spans` counter. The tracer only writes: ToJson is its
/// one output format, and tools/trace_report.py and
/// tools/check_stats_schema.py read, check and convert that file.
///
/// ## Thread safety
///
/// Shared state (the span ring, the ambient stack, the id counters) is
/// mutex-guarded, so concurrent StartSpan/Finish/Tag calls are safe —
/// but a shared id counter would still make span ids depend on thread
/// interleaving. Task-pool work therefore records through a TaskSink:
/// while a TaskSinkScope is installed on a thread, that thread's spans
/// buffer lock-free into its task's private sink with task-local ids,
/// and the pool commits the sinks at the epoch barrier in task order.
/// Committed records then receive their final ids from the shared
/// counters — so the stored trace (ids, order, histogram mirror, ring
/// eviction) is byte-identical no matter how many workers ran the epoch,
/// and identical to a serial execution of the same tasks. Inside a sink,
/// spans must use explicit-parent StartSpan(name, ctx); an ambient
/// StartSpan(name) roots a fresh trace instead of consulting the shared
/// open stack. The borrowed `spans()` reference and span handles of sink
/// spans are only meaningful on the thread/epoch that produced them.
class Tracer {
 public:
  /// `clock` is borrowed and may be null (all times read as 0 until a
  /// clock is installed with set_clock).
  explicit Tracer(const Clock* clock = nullptr) : clock_(clock) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_clock(const Clock* clock) { clock_ = clock; }

  /// Mirrors every finished span's duration into
  /// `registry->histogram("span." + SanitizeSpanName(name) + "_us")`.
  /// Null disables.
  void set_metrics_registry(MetricsRegistry* registry) {
    registry_ = registry;
  }

  /// Caps span storage at `max_spans` (0 = unbounded, the default).
  /// Once full, each new span overwrites the oldest record and bumps
  /// the `trace.dropped_spans` counter. Existing records are discarded
  /// (equivalent to Clear()) so the ring geometry is well defined.
  void set_capacity(size_t max_spans);

  /// Head-based sampling: keeps roughly `rate` of new trace *roots*
  /// (clamped to [0, 1]; 1 = trace everything, the default). Admission
  /// is decided deterministically with an error accumulator — every
  /// 1/rate-th root is kept — so a replayed scenario samples the same
  /// traces. A sampled-out root returns an inert span with an invalid
  /// context(): descendants via MaybeStartSpan record nothing, ambient
  /// children are suppressed through a marker stack, so a dropped trace
  /// contributes zero spans rather than orphans. Only applies to new
  /// roots — spans with a valid parent always record (their root was
  /// already admitted). Task-sink roots are never sampled out (sink
  /// spans are expected to carry an explicit, already-sampled parent).
  void SetSampleRate(double rate);

  /// Trace roots suppressed by SetSampleRate since the last Clear().
  uint64_t sampled_out() const;

  /// Opens an ambient span; it finishes when the returned object is
  /// destroyed or End() is called. The tracer must outlive the span.
  TraceSpan StartSpan(std::string name);

  /// Opens a span whose parent is the span named by `parent`. When
  /// `parent` is invalid the span roots a new trace. Never consults or
  /// joins the ambient open stack.
  TraceSpan StartSpan(std::string name, const TraceContext& parent);

  /// Context of the innermost open ambient span (invalid when none is
  /// open) — the bridge from ambient session-level spans into the
  /// explicitly-propagated fabric below.
  TraceContext current_context() const;

  /// Span records in storage order. With no capacity set this is start
  /// order; once a ring buffer has wrapped, use OrderedSpans(). A
  /// still-open span's end_us equals its start_us until it finishes.
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Copies the records oldest-first regardless of ring wrap.
  std::vector<SpanRecord> OrderedSpans() const;

  /// Spans overwritten by the ring buffer since the last Clear().
  uint64_t dropped_spans() const { return dropped_spans_; }

  /// Depth of the currently open ambient span chain (0 = none open).
  int open_depth() const { return static_cast<int>(open_.size()); }

  void Clear();

  /// Optional header fields for ToJson.
  struct TraceMeta {
    std::string bench;       ///< Emitted as "bench" when non-empty.
    Micros measured_us = -1; ///< Emitted as "measured_us" when >= 0.
  };

  /// Serializes spans (oldest first) as
  /// {"schema":"minos.trace.v1","spans":[...]}. The overload adds the
  /// bench name and externally measured wall (sim) time that
  /// tools/trace_report.py reconciles the critical path against.
  std::string ToJson() const { return ToJson(TraceMeta{}); }
  std::string ToJson(const TraceMeta& meta) const;

  /// Marks task-local span/trace ids inside a TaskSink; commit replaces
  /// them with ids from the shared counters. Real ids never reach this
  /// bit (they would need 2^63 spans).
  static constexpr uint64_t kTaskLocalBit = 1ull << 63;

  /// Sentinel seqs for spans suppressed by sampling. Real seqs and
  /// task-local seqs can never reach these values; Finish/Tag check
  /// them before the task-local branch.
  static constexpr uint64_t kSuppressedSeq = ~0ull;
  static constexpr uint64_t kSuppressedAmbientSeq = ~0ull - 1;

  /// Private per-task span buffer. The task pool creates one per task on
  /// the submitting thread, the executing worker installs it with a
  /// TaskSinkScope, and the submitting thread commits it at the barrier
  /// with CommitTaskSink — in task order, so storage is deterministic.
  class TaskSink {
   public:
    explicit TaskSink(Tracer* tracer) : tracer_(tracer) {}
    TaskSink(const TaskSink&) = delete;
    TaskSink& operator=(const TaskSink&) = delete;

    /// Spans buffered so far (start order, task-local ids).
    size_t size() const { return records_.size(); }

   private:
    friend class Tracer;
    Tracer* tracer_;
    std::vector<SpanRecord> records_;  ///< Start order, local ids.
    uint64_t next_local_ = 1;
  };

  /// RAII: while alive, the installing thread's spans on the sink's
  /// tracer buffer into the sink (nests; restores the previous sink).
  class TaskSinkScope {
   public:
    explicit TaskSinkScope(TaskSink* sink) : prev_(t_sink_) {
      t_sink_ = sink;
    }
    ~TaskSinkScope() { t_sink_ = prev_; }
    TaskSinkScope(const TaskSinkScope&) = delete;
    TaskSinkScope& operator=(const TaskSinkScope&) = delete;

   private:
    TaskSink* prev_;
  };

  /// Moves a task's buffered spans into shared storage, assigning final
  /// span/trace ids from the shared counters and running the deferred
  /// finish effects (%id tag, histogram mirror, ring eviction) in
  /// buffer order. Call from the epoch barrier, in task order; the sink
  /// resets for reuse.
  void CommitTaskSink(TaskSink& sink);

 private:
  friend class TraceSpan;

  /// Ambient-stack entry. span_id == 0 marks a suppressed (sampled-out)
  /// ambient span: it keeps the nesting depth honest so End() pops
  /// correctly, but is never a parent and never prunes.
  struct OpenEntry {
    uint64_t seq;
    uint64_t span_id;
  };

  Micros NowUs() const { return clock_ == nullptr ? 0 : clock_->Now(); }
  size_t SlotFor(uint64_t seq) const {
    return capacity_ == 0 ? static_cast<size_t>(seq)
                          : static_cast<size_t>(seq % capacity_);
  }
  /// The installing thread's sink, when it belongs to this tracer.
  TaskSink* CurrentSink() const {
    return t_sink_ != nullptr && t_sink_->tracer_ == this ? t_sink_
                                                          : nullptr;
  }
  /// Record for `seq` if it has not been overwritten, else null.
  SpanRecord* Live(uint64_t seq, uint64_t span_id);
  const SpanRecord* Live(uint64_t seq, uint64_t span_id) const;
  TraceSpan StartSpanInternal(std::string name, uint64_t trace_id,
                              uint64_t parent_span_id, int depth,
                              int64_t parent_ordinal, bool ambient);
  TraceSpan SinkStartSpan(TaskSink& sink, std::string name,
                          const TraceContext& parent);
  /// Places a record in the ring (evicting the slot's tenant once
  /// wrapped) and returns its seq. Caller holds mu_.
  uint64_t PlaceRecordLocked(SpanRecord record);
  /// Sampling decision for a would-be trace root. Caller holds mu_.
  bool AdmitRootLocked();
  /// An inert handle whose End()/AddTag() are no-ops (ambient flavor
  /// additionally pops its suppression marker). Caller holds mu_ when
  /// pushing the marker.
  TraceSpan SuppressedSpan(std::string name, bool ambient);
  /// The deferred half of Finish: %id tag, histogram mirror. Caller
  /// holds mu_.
  void FinishEffectsLocked(SpanRecord& rec);
  void ClearLocked();
  void Finish(uint64_t seq, uint64_t span_id);
  void Tag(uint64_t seq, uint64_t span_id, std::string_view key,
           std::string value);
  std::vector<SpanRecord> OrderedSpansLocked() const;

  /// Guards every shared member below. Sink-routed operations do not
  /// take it — a sink is owned by exactly one running task.
  mutable std::mutex mu_;
  const Clock* clock_;
  MetricsRegistry* registry_ = nullptr;
  size_t capacity_ = 0;           ///< 0 = unbounded.
  uint64_t started_ = 0;          ///< Spans started since Clear().
  uint64_t dropped_spans_ = 0;
  double sample_rate_ = 1.0;      ///< Fraction of roots kept.
  double sample_accum_ = 0.0;     ///< Deterministic sampling residue.
  uint64_t sampled_out_ = 0;      ///< Roots suppressed since Clear().
  uint64_t next_span_id_ = 1;   ///< Never reset: stale handles can't alias.
  uint64_t next_trace_id_ = 1;  ///< Never reset.
  std::vector<OpenEntry> open_;  ///< Ambient stack, innermost last.
  std::vector<SpanRecord> spans_;

  /// Sink installed on the calling thread (TaskSinkScope), any tracer.
  inline static thread_local TaskSink* t_sink_ = nullptr;
};

/// RAII handle for one span. Movable, not copyable; finishes at
/// destruction unless End() already ran.
class TraceSpan {
 public:
  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  /// Finishes the span now; later calls (and destruction) are no-ops.
  void End();

  /// Attaches an attribution tag. No-op once finished or after the
  /// ring buffer has reclaimed the record.
  void AddTag(std::string_view key, std::string value);
  void AddTag(std::string_view key, int64_t value);

  /// Context to hand to child work: children created from it become
  /// children of this span. Remains usable after End().
  TraceContext context() const { return context_; }

  const std::string& name() const { return name_; }

 private:
  friend class Tracer;
  TraceSpan(Tracer* tracer, std::string name, uint64_t seq,
            TraceContext context)
      : tracer_(tracer), name_(std::move(name)), seq_(seq),
        context_(context) {}

  Tracer* tracer_ = nullptr;  ///< Null once finished/moved-from.
  std::string name_;
  uint64_t seq_ = 0;  ///< Start ordinal in the tracer.
  TraceContext context_;
};

/// Starts `name` as a child of `parent` when `tracer` is non-null and
/// the caller is itself traced; nullopt otherwise. The fabric-layer
/// idiom: an untraced call path (invalid context) records nothing, so
/// it can never produce orphan roots.
std::optional<TraceSpan> MaybeStartSpan(Tracer* tracer, std::string name,
                                        const TraceContext& parent);

/// Context of an optional span (invalid when absent).
TraceContext ContextOf(const std::optional<TraceSpan>& span);

}  // namespace minos::obs

#endif  // MINOS_OBS_TRACE_H_
