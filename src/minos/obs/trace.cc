#include "minos/obs/trace.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "minos/obs/json.h"

namespace minos::obs {

const std::string* SpanRecord::FindTag(std::string_view key) const {
  for (const auto& [k, v] : tags) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string SanitizeSpanName(std::string_view name, std::string* ids) {
  std::string out;
  out.reserve(name.size());
  size_t i = 0;
  while (i < name.size()) {
    if (std::isdigit(static_cast<unsigned char>(name[i]))) {
      size_t j = i;
      while (j < name.size() &&
             std::isdigit(static_cast<unsigned char>(name[j]))) {
        ++j;
      }
      out += "%id";
      if (ids != nullptr) {
        if (!ids->empty()) *ids += ",";
        ids->append(name.substr(i, j - i));
      }
      i = j;
    } else {
      out += name[i++];
    }
  }
  return out;
}

SpanRecord* Tracer::Live(uint64_t seq, uint64_t span_id) {
  if (seq >= started_) return nullptr;
  const size_t slot = SlotFor(seq);
  if (slot >= spans_.size()) return nullptr;
  SpanRecord& rec = spans_[slot];
  return rec.span_id == span_id ? &rec : nullptr;
}

const SpanRecord* Tracer::Live(uint64_t seq, uint64_t span_id) const {
  return const_cast<Tracer*>(this)->Live(seq, span_id);
}

void Tracer::set_capacity(size_t max_spans) {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
  capacity_ = max_spans;
}

void Tracer::SetSampleRate(double rate) {
  std::lock_guard<std::mutex> lock(mu_);
  sample_rate_ = std::min(1.0, std::max(0.0, rate));
  sample_accum_ = 0.0;
}

uint64_t Tracer::sampled_out() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampled_out_;
}

bool Tracer::AdmitRootLocked() {
  if (sample_rate_ >= 1.0) return true;
  sample_accum_ += sample_rate_;
  if (sample_accum_ >= 1.0 - 1e-9) {
    sample_accum_ -= 1.0;
    return true;
  }
  ++sampled_out_;
  if (registry_ != nullptr) {
    registry_->counter("trace.sampled_out")->Increment();
  }
  return false;
}

TraceSpan Tracer::SuppressedSpan(std::string name, bool ambient) {
  if (ambient) open_.push_back(OpenEntry{kSuppressedAmbientSeq, 0});
  return TraceSpan(this, std::move(name),
                   ambient ? kSuppressedAmbientSeq : kSuppressedSeq,
                   TraceContext{});
}

TraceSpan Tracer::StartSpan(std::string name) {
  if (TaskSink* sink = CurrentSink()) {
    // Inside a task the shared ambient stack is off limits (it belongs
    // to whatever the submitting thread had open); the span roots a
    // fresh trace with a task-local trace id instead.
    return SinkStartSpan(*sink, std::move(name), TraceContext{});
  }
  std::lock_guard<std::mutex> lock(mu_);
  // The innermost still-live ambient span is the parent; entries whose
  // records the ring buffer has reclaimed are pruned on the way down.
  // Suppression markers (span_id == 0) are live by definition.
  while (!open_.empty() && open_.back().span_id != 0 &&
         Live(open_.back().seq, open_.back().span_id) == nullptr) {
    open_.pop_back();
  }
  if (!open_.empty() && open_.back().span_id == 0) {
    // Nested under a sampled-out ambient root: suppress the whole
    // subtree so a dropped trace never contributes partial spans.
    return SuppressedSpan(std::move(name), /*ambient=*/true);
  }
  if (open_.empty()) {
    if (!AdmitRootLocked()) {
      return SuppressedSpan(std::move(name), /*ambient=*/true);
    }
    return StartSpanInternal(std::move(name), next_trace_id_++, 0, 0, -1,
                             /*ambient=*/true);
  }
  const SpanRecord* p = Live(open_.back().seq, open_.back().span_id);
  return StartSpanInternal(std::move(name), p->trace_id, p->span_id,
                           p->depth + 1,
                           static_cast<int64_t>(open_.back().seq),
                           /*ambient=*/true);
}

TraceSpan Tracer::StartSpan(std::string name, const TraceContext& parent) {
  if (TaskSink* sink = CurrentSink()) {
    return SinkStartSpan(*sink, std::move(name), parent);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!parent.valid()) {
    if (!AdmitRootLocked()) {
      return SuppressedSpan(std::move(name), /*ambient=*/false);
    }
    return StartSpanInternal(std::move(name), next_trace_id_++, 0, 0, -1,
                             /*ambient=*/false);
  }
  return StartSpanInternal(std::move(name), parent.trace_id, parent.span_id,
                           parent.depth + 1, -1, /*ambient=*/false);
}

TraceSpan Tracer::SinkStartSpan(TaskSink& sink, std::string name,
                                const TraceContext& parent) {
  SpanRecord record;
  record.name = name;
  const uint64_t local = sink.next_local_++;
  record.span_id = kTaskLocalBit | local;
  if (parent.valid()) {
    record.trace_id = parent.trace_id;
    record.parent_span_id = parent.span_id;
    record.depth = parent.depth + 1;
  } else {
    record.trace_id = kTaskLocalBit | local;
    record.parent_span_id = 0;
    record.depth = 0;
  }
  record.start_us = NowUs();
  record.end_us = record.start_us;
  record.parent = -1;
  TraceContext ctx;
  ctx.trace_id = record.trace_id;
  ctx.span_id = record.span_id;
  ctx.parent_span_id = record.parent_span_id;
  ctx.depth = record.depth;
  const uint64_t seq =
      kTaskLocalBit | static_cast<uint64_t>(sink.records_.size());
  sink.records_.push_back(std::move(record));
  return TraceSpan(this, std::move(name), seq, ctx);
}

TraceSpan Tracer::StartSpanInternal(std::string name, uint64_t trace_id,
                                    uint64_t parent_span_id, int depth,
                                    int64_t parent_ordinal, bool ambient) {
  SpanRecord record;
  record.name = name;
  record.trace_id = trace_id;
  record.span_id = next_span_id_++;
  record.parent_span_id = parent_span_id;
  record.start_us = NowUs();
  record.end_us = record.start_us;
  record.depth = depth;
  record.parent = parent_ordinal;
  TraceContext ctx;
  ctx.trace_id = trace_id;
  ctx.span_id = record.span_id;
  ctx.parent_span_id = parent_span_id;
  ctx.depth = depth;
  const uint64_t seq = PlaceRecordLocked(std::move(record));
  if (ambient) open_.push_back(OpenEntry{seq, ctx.span_id});
  return TraceSpan(this, std::move(name), seq, ctx);
}

uint64_t Tracer::PlaceRecordLocked(SpanRecord record) {
  const uint64_t seq = started_++;
  const size_t slot = SlotFor(seq);
  if (slot < spans_.size()) {
    // Ring wrapped: evict the slot's tenant. If that span is still
    // open its handle's End() becomes a no-op (span_id mismatch).
    const uint64_t evicted = seq - static_cast<uint64_t>(capacity_);
    open_.erase(std::remove_if(
                    open_.begin(), open_.end(),
                    [&](const OpenEntry& e) { return e.seq == evicted; }),
                open_.end());
    ++dropped_spans_;
    if (registry_ != nullptr) {
      registry_->counter("trace.dropped_spans")->Increment();
    }
    spans_[slot] = std::move(record);
  } else {
    spans_.push_back(std::move(record));
  }
  return seq;
}

TraceContext Tracer::current_context() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_.empty() && open_.back().span_id == 0) {
    // Inside a sampled-out ambient subtree: callers bridging into the
    // explicit fabric get an invalid context, so the fabric below
    // records nothing either.
    return TraceContext{};
  }
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    const SpanRecord* rec = Live(it->seq, it->span_id);
    if (rec != nullptr) {
      TraceContext ctx;
      ctx.trace_id = rec->trace_id;
      ctx.span_id = rec->span_id;
      ctx.parent_span_id = rec->parent_span_id;
      ctx.depth = rec->depth;
      return ctx;
    }
  }
  return TraceContext{};
}

void Tracer::Finish(uint64_t seq, uint64_t span_id) {
  if (seq == kSuppressedSeq) return;
  if (seq == kSuppressedAmbientSeq) {
    // Markers form a contiguous suffix of the open stack (no real span
    // can start under one), so popping the innermost is the match.
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_.empty() && open_.back().span_id == 0) open_.pop_back();
    return;
  }
  if ((seq & kTaskLocalBit) != 0) {
    // A sink span finishes inside its own task: stamp the end time now
    // (the task's clock frame is still installed); the %id/mirror
    // effects run at commit, in deterministic task order. A handle
    // that outlived its task finds no sink and is dropped.
    TaskSink* sink = CurrentSink();
    if (sink == nullptr) return;
    const size_t idx = static_cast<size_t>(seq & ~kTaskLocalBit);
    if (idx >= sink->records_.size()) return;
    SpanRecord& rec = sink->records_[idx];
    if (rec.span_id != span_id) return;
    rec.end_us = std::max(rec.start_us, NowUs());
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord* rec = Live(seq, span_id);
  if (rec == nullptr) return;  // Cleared, or reclaimed by the ring.
  rec->end_us = std::max(rec->start_us, NowUs());
  open_.erase(std::remove_if(
                  open_.begin(), open_.end(),
                  [&](const OpenEntry& e) { return e.seq == seq; }),
              open_.end());
  FinishEffectsLocked(*rec);
}

void Tracer::FinishEffectsLocked(SpanRecord& rec) {
  std::string ids;
  const std::string sanitized = SanitizeSpanName(rec.name, &ids);
  if (!ids.empty() && rec.FindTag("%id") == nullptr) {
    rec.tags.emplace_back("%id", ids);
  }
  if (registry_ != nullptr) {
    registry_->histogram("span." + sanitized + "_us")
        ->Record(static_cast<double>(rec.duration_us()));
  }
}

void Tracer::Tag(uint64_t seq, uint64_t span_id, std::string_view key,
                 std::string value) {
  if (seq == kSuppressedSeq || seq == kSuppressedAmbientSeq) return;
  if ((seq & kTaskLocalBit) != 0) {
    TaskSink* sink = CurrentSink();
    if (sink == nullptr) return;
    const size_t idx = static_cast<size_t>(seq & ~kTaskLocalBit);
    if (idx >= sink->records_.size()) return;
    SpanRecord& rec = sink->records_[idx];
    if (rec.span_id != span_id) return;
    rec.tags.emplace_back(std::string(key), std::move(value));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord* rec = Live(seq, span_id);
  if (rec == nullptr) return;
  rec->tags.emplace_back(std::string(key), std::move(value));
}

void Tracer::CommitTaskSink(TaskSink& sink) {
  std::lock_guard<std::mutex> lock(mu_);
  // Task-local ids map to freshly allocated shared ids in buffer (start)
  // order — exactly the ids a serial execution of the tasks in commit
  // order would have drawn. Parents precede children in the buffer, so
  // one forward pass resolves every intra-sink link.
  std::map<uint64_t, uint64_t> span_ids;
  std::map<uint64_t, uint64_t> trace_ids;
  for (SpanRecord& rec : sink.records_) {
    if ((rec.span_id & kTaskLocalBit) != 0) {
      const uint64_t global = next_span_id_++;
      span_ids[rec.span_id] = global;
      rec.span_id = global;
    }
    if ((rec.trace_id & kTaskLocalBit) != 0) {
      auto [it, fresh] = trace_ids.try_emplace(rec.trace_id, 0);
      if (fresh) it->second = next_trace_id_++;
      rec.trace_id = it->second;
    }
    if ((rec.parent_span_id & kTaskLocalBit) != 0) {
      auto it = span_ids.find(rec.parent_span_id);
      rec.parent_span_id = it != span_ids.end() ? it->second : 0;
    }
    const uint64_t seq = PlaceRecordLocked(std::move(rec));
    FinishEffectsLocked(spans_[SlotFor(seq)]);
  }
  sink.records_.clear();
  sink.next_local_ = 1;
}

std::vector<SpanRecord> Tracer::OrderedSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return OrderedSpansLocked();
}

std::vector<SpanRecord> Tracer::OrderedSpansLocked() const {
  if (capacity_ == 0 || started_ <= capacity_) return spans_;
  std::vector<SpanRecord> out;
  out.reserve(spans_.size());
  for (uint64_t seq = started_ - capacity_; seq < started_; ++seq) {
    out.push_back(spans_[SlotFor(seq)]);
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
}

void Tracer::ClearLocked() {
  // Open spans would dangle; detach them first (their End() becomes a
  // no-op via the liveness check in Finish). Span/trace id counters are
  // deliberately not reset so stale handles can never alias new records.
  open_.clear();
  spans_.clear();
  started_ = 0;
  dropped_spans_ = 0;
  sample_accum_ = 0.0;
  sampled_out_ = 0;
}

std::string Tracer::ToJson(const TraceMeta& meta) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"schema\":\"minos.trace.v1\"";
  if (!meta.bench.empty()) {
    out += ",\"bench\":\"" + JsonEscape(meta.bench) + "\"";
  }
  if (meta.measured_us >= 0) {
    out += ",\"measured_us\":" + std::to_string(meta.measured_us);
  }
  out += ",\"dropped_spans\":" + std::to_string(dropped_spans_);
  out += ",\"spans\":[";
  bool first = true;
  for (const SpanRecord& s : OrderedSpansLocked()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(s.name) + "\"";
    out += ",\"trace_id\":" + std::to_string(s.trace_id);
    out += ",\"span_id\":" + std::to_string(s.span_id);
    out += ",\"parent_span_id\":" + std::to_string(s.parent_span_id);
    out += ",\"start_us\":" + std::to_string(s.start_us);
    out += ",\"end_us\":" + std::to_string(s.end_us);
    out += ",\"depth\":" + std::to_string(s.depth);
    out += ",\"parent\":" + std::to_string(s.parent);
    if (!s.tags.empty()) {
      out += ",\"tags\":{";
      for (size_t i = 0; i < s.tags.size(); ++i) {
        if (i > 0) out += ",";
        out += '"';
        out += JsonEscape(s.tags[i].first);
        out += "\":\"";
        out += JsonEscape(s.tags[i].second);
        out += '"';
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : tracer_(other.tracer_), name_(std::move(other.name_)),
      seq_(other.seq_), context_(other.context_) {
  other.tracer_ = nullptr;
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    seq_ = other.seq_;
    context_ = other.context_;
    other.tracer_ = nullptr;
  }
  return *this;
}

TraceSpan::~TraceSpan() { End(); }

void TraceSpan::End() {
  if (tracer_ == nullptr) return;
  tracer_->Finish(seq_, context_.span_id);
  tracer_ = nullptr;
}

void TraceSpan::AddTag(std::string_view key, std::string value) {
  if (tracer_ == nullptr) return;
  tracer_->Tag(seq_, context_.span_id, key, std::move(value));
}

void TraceSpan::AddTag(std::string_view key, int64_t value) {
  AddTag(key, std::to_string(value));
}

std::optional<TraceSpan> MaybeStartSpan(Tracer* tracer, std::string name,
                                        const TraceContext& parent) {
  if (tracer == nullptr || !parent.valid()) return std::nullopt;
  return tracer->StartSpan(std::move(name), parent);
}

TraceContext ContextOf(const std::optional<TraceSpan>& span) {
  return span.has_value() ? span->context() : TraceContext{};
}

}  // namespace minos::obs
