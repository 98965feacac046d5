#!/usr/bin/env python3
"""Validates exported MINOS stats documents (metrics and traces).

Usage:
    check_stats_schema.py SNAPSHOT.json [TRACE.json ...]
    check_stats_schema.py --require-pipeline BENCH_SYM_1.json
    check_stats_schema.py --require-faults BENCH_fault_sweep.json

Dispatches on the document's "schema" tag. For minos.metrics.v1
(BENCH_*.json, emitted by `minos::obs::SnapshotToJson`) it checks the
schema tag, bench string, a numeric sim_time_us > 0 (a run that never
advanced its SimClock measured nothing), a numeric workers dimension
>= 1 (every bench stamps the worker count of its task pool; a snapshot
without it predates the multi-core runtime and fails), the three metric
sections, numeric values throughout, and the full
count/sum/min/max/mean/p50/p90/p99 field set on every histogram. For
minos.trace.v1 (TRACE_*.json, emitted by `minos::obs::Tracer::ToJson`)
it checks the span-list contract: string names, integer ids and times,
end >= start, string-to-string tags, and every nonzero parent_span_id
resolving inside its own trace. A file that cannot be read, is not
UTF-8 or is not JSON fails, and the files after it are still checked.

With --require-pipeline, additionally requires the metric families a
full presentation-pipeline run produces (block cache, link, scheduler,
page-turn latency) — the acceptance gate for BENCH_*.json trajectories
and `minos_render --stats` output.

With --require-faults, additionally requires the fault-injection and
recovery families (injected faults, retries actually taken, circuit
breaker state and transitions, retry-delay and page-open-latency
histograms) — the acceptance gate for BENCH_fault_sweep.json. Faults
must have been injected and retries taken: zero-valued evidence
counters fail the check.

With --require-repair, additionally requires the anti-entropy repair
families: repair syncs, digest exchanges, replicas actually repaired
and bytes actually shipped (all > 0), the repair MTTR histograms, and —
the convergence gate — the 'router.under_replicated' gauge present AND
zero: a snapshot whose final state still owes replicas fails.

With --require-ranked-scale, additionally requires the catalog-scale
evidence the ranked_query bench records: postings actually skipped
(query.postings_skipped > 0), the scale gauges present, a pruned visit
fraction under 0.5 at the large catalog, a sublinear per-query scoring
cost growth (< 1.0 relative to catalog size), and the Append delta-path
proof (exactly one stats delta applied, zero full re-adds).

With --require-sessions, additionally requires the SessionManager storm
evidence: sessions actually opened, admitted, queued at the admission
cap, admitted back out of the queue, idle-reaped and closed (all > 0),
the per-event latency histograms non-empty, a peak concurrency of at
least 2000 sessions, and a class fairness ratio within the bench's own
bound — the acceptance gate for BENCH_session_storm.json.

Exit status: 0 when every file validates, 1 otherwise.
"""

import argparse
import json
import sys

SCHEMA = "minos.metrics.v1"
TRACE_SCHEMA = "minos.trace.v1"
HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean", "p50", "p90", "p99")
SPAN_INT_FIELDS = ("trace_id", "span_id", "parent_span_id", "start_us",
                   "end_us")

# Metric families a full pipeline run must have touched. Instance scopes
# are numbered (block_cache0, link1, ...), so these are name prefixes /
# substrings rather than exact names.
PIPELINE_COUNTER_PATTERNS = (
    ("block_cache", ".hits"),
    ("block_cache", ".misses"),
    ("link", ".bytes_total"),
    ("link", ".transfers"),
)
PIPELINE_HISTOGRAM_PATTERNS = (
    ("scheduler.", ".queueing_delay_us"),
    ("browser.", ".page_turn_us"),
)

# Fault-model families a chaos run must have produced. The > 0 counters
# prove the run actually exercised recovery rather than merely linking
# against it.
FAULT_COUNTER_PATTERNS = (
    ("faults", ".injected_total"),
    ("fault", ".drops"),
    ("retry", ".attempts_total"),
    ("link", ".breaker_opens_total"),
)
FAULT_POSITIVE_COUNTERS = (
    "faults.injected_total",
    "retry.retries_total",
)
FAULT_GAUGE_PATTERNS = (("link", ".breaker_open"),)
FAULT_HISTOGRAM_NAMES = ("retry.delay_us",)
# Any bench that opens objects under faults records a page-open latency
# histogram under its own scope (fault_sweep.page_open_us,
# prefetch_pipeline.sync.page_open_us, ...); one such histogram must be
# present rather than one hard-coded name.
FAULT_HISTOGRAM_PATTERNS = (("", ".page_open_us"),)

# Anti-entropy repair families a degrade-then-repair run must have
# produced. The > 0 counters prove repairs actually shipped; the
# == 0 gauges prove the run ended converged (no replica debt, no
# pending repair work).
REPAIR_POSITIVE_COUNTERS = (
    "repair.syncs_total",
    "repair.digest_exchanges_total",
    "repair.replicas_repaired_total",
    "repair.bytes_total",
    "repair.requests_total",
)
REPAIR_COUNTER_NAMES = (
    "repair.digest_rejects_total",
    "repair.errors_total",
    "repair.failures_total",
    "router.degraded_stores_total",
)
REPAIR_ZERO_GAUGES = (
    "router.under_replicated",
    "repair.pending",
)
REPAIR_HISTOGRAM_NAMES = (
    "repair.duration_us",
    "fault_sweep.mttr_us",
    "fault_sweep.partial_mttr_us",
)

# Ranked catalog-scale evidence: the max-score pruned scorer must have
# skipped real work, visited under half the exhaustive postings on the
# large catalog, grown sublinearly in catalog size, and folded appends
# through the stats-delta path rather than a rebuild.
RANKED_SCALE_POSITIVE_COUNTERS = ("query.postings_skipped",)
RANKED_SCALE_GAUGES = (
    "ranked_query.scale_scanned_small",
    "ranked_query.scale_scanned_large",
    "ranked_query.scale_exhaustive_scanned_large",
)
RANKED_SCALE_BOUNDED_GAUGES = (
    # (name, exclusive upper bound)
    ("ranked_query.scale_pruned_visit_fraction", 0.5),
    ("ranked_query.scale_cost_growth", 1.0),
)
RANKED_SCALE_EXACT_GAUGES = (
    ("ranked_query.append_stats_full_adds", 0),
    ("ranked_query.append_stats_delta_applies", 1),
)

# SessionManager storm evidence: the multiplexing machinery must have
# actually fired — admission queueing, queue re-admission, idle reaping,
# explicit closes — not merely linked against the session library.
SESSION_POSITIVE_COUNTERS = (
    "session.opened_total",
    "session.admitted_total",
    "session.admission_queued_total",
    "session.queue_admitted_total",
    "session.reaped_total",
    "session.closed_total",
    "session.events_total",
    "session.page_turns_total",
    "session.opens_total",
    "session.searches_total",
    "session.appends_total",
    "prefetch.hits",
)
SESSION_COUNTER_NAMES = (
    "session.deferred_events_total",
    "session.budget_deferred_total",
    "session.link_waits_total",
    "session.plan_invalidations_total",
)
SESSION_GAUGE_NAMES = (
    "session.active",
    "session.queued",
    "session_storm.reader_p99_base_us",
    "session_storm.reader_p99_storm_us",
)
SESSION_MIN_GAUGES = (
    # (name, inclusive lower bound)
    ("session_storm.peak_active", 2000),
    ("session_storm.peak_queued", 1),
)
SESSION_BOUNDED_GAUGES = (
    # (name, inclusive upper bound)
    ("session_storm.fairness_ratio", 4.0),
)
SESSION_HISTOGRAM_NAMES = (
    "session.page_turn_us",
    "session.open_us",
    "session.search_us",
    "session.append_us",
)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def validate_trace(doc):
    """Returns a list of problem strings for a minos.trace.v1 document."""
    problems = []
    if not isinstance(doc.get("bench"), str):
        problems.append("missing string field 'bench'")
    if "measured_us" in doc and not _is_number(doc["measured_us"]):
        problems.append("field 'measured_us' is not numeric")
    if not _is_int(doc.get("dropped_spans", 0)):
        problems.append("field 'dropped_spans' is not an integer")
    if not isinstance(doc.get("spans"), list):
        problems.append("missing list field 'spans'")
        return problems

    by_trace = {}
    for i, span in enumerate(doc["spans"]):
        if not isinstance(span, dict):
            problems.append(f"span[{i}] is not an object")
            continue
        name = span.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"span[{i}] has no string name")
            continue
        bad = False
        for field in SPAN_INT_FIELDS:
            if not _is_int(span.get(field)):
                problems.append(
                    f"span '{name}' field '{field}' is not an integer"
                )
                bad = True
        if bad:
            continue
        if span["end_us"] < span["start_us"]:
            problems.append(f"span '{name}' ends before it starts")
        tags = span.get("tags", {})
        if not isinstance(tags, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in tags.items()
        ):
            problems.append(f"span '{name}' tags are not string->string")
        by_trace.setdefault(span["trace_id"], set()).add(span["span_id"])
    for span in doc["spans"]:
        if not isinstance(span, dict):
            continue
        parent = span.get("parent_span_id")
        trace_id = span.get("trace_id")
        if (
            _is_int(parent)
            and parent != 0
            and parent not in by_trace.get(trace_id, set())
        ):
            problems.append(
                f"orphan span '{span.get('name')}': parent {parent} "
                f"not in trace {trace_id}"
            )
    return problems


def validate(doc, require_pipeline=False, require_faults=False,
             require_repair=False, require_ranked_scale=False,
             require_sessions=False):
    """Returns a list of problem strings (empty when valid)."""
    problems = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema tag is not '{SCHEMA}'")
    if not isinstance(doc.get("bench"), str):
        problems.append("missing string field 'bench'")
    if not _is_number(doc.get("sim_time_us")):
        problems.append("missing numeric field 'sim_time_us'")
    elif doc["sim_time_us"] <= 0:
        problems.append(
            f"field 'sim_time_us' is {doc['sim_time_us']}, expected > 0"
        )
    if not _is_number(doc.get("workers")):
        problems.append("missing numeric field 'workers'")
    elif doc["workers"] < 1:
        problems.append(f"field 'workers' is {doc['workers']}, expected >= 1")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            problems.append(f"missing object section '{section}'")
    if problems:
        return problems

    for name, value in doc["counters"].items():
        if not _is_number(value):
            problems.append(f"counter '{name}' is not numeric")
    for name, value in doc["gauges"].items():
        if not _is_number(value):
            problems.append(f"gauge '{name}' is not numeric")
    for name, summary in doc["histograms"].items():
        if not isinstance(summary, dict):
            problems.append(f"histogram '{name}' is not an object")
            continue
        for field in HISTOGRAM_FIELDS:
            if not _is_number(summary.get(field)):
                problems.append(f"histogram '{name}' missing field '{field}'")

    if require_pipeline:
        for prefix, suffix in PIPELINE_COUNTER_PATTERNS:
            if not any(
                n.startswith(prefix) and n.endswith(suffix)
                for n in doc["counters"]
            ):
                problems.append(f"no pipeline counter {prefix}*{suffix}")
        for prefix, suffix in PIPELINE_HISTOGRAM_PATTERNS:
            if not any(
                n.startswith(prefix) and n.endswith(suffix)
                for n in doc["histograms"]
            ):
                problems.append(f"no pipeline histogram {prefix}*{suffix}")

    if require_faults:
        for prefix, suffix in FAULT_COUNTER_PATTERNS:
            if not any(
                n.startswith(prefix) and n.endswith(suffix)
                for n in doc["counters"]
            ):
                problems.append(f"no fault counter {prefix}*{suffix}")
        for name in FAULT_POSITIVE_COUNTERS:
            if not doc["counters"].get(name, 0) > 0:
                problems.append(f"counter '{name}' is not > 0")
        for prefix, suffix in FAULT_GAUGE_PATTERNS:
            if not any(
                n.startswith(prefix) and n.endswith(suffix)
                for n in doc["gauges"]
            ):
                problems.append(f"no fault gauge {prefix}*{suffix}")
        for name in FAULT_HISTOGRAM_NAMES:
            if name not in doc["histograms"]:
                problems.append(f"no fault histogram '{name}'")
        for prefix, suffix in FAULT_HISTOGRAM_PATTERNS:
            if not any(
                n.startswith(prefix) and n.endswith(suffix)
                for n in doc["histograms"]
            ):
                problems.append(f"no fault histogram {prefix}*{suffix}")

    if require_repair:
        for name in REPAIR_POSITIVE_COUNTERS:
            if not doc["counters"].get(name, 0) > 0:
                problems.append(f"repair counter '{name}' is not > 0")
        for name in REPAIR_COUNTER_NAMES:
            if name not in doc["counters"]:
                problems.append(f"no repair counter '{name}'")
        for name in REPAIR_ZERO_GAUGES:
            if name not in doc["gauges"]:
                problems.append(f"no repair gauge '{name}'")
            elif doc["gauges"][name] != 0:
                problems.append(
                    f"gauge '{name}' is {doc['gauges'][name]}, "
                    "expected 0 (run did not converge)"
                )
        for name in REPAIR_HISTOGRAM_NAMES:
            if name not in doc["histograms"]:
                problems.append(f"no repair histogram '{name}'")
            elif not doc["histograms"][name].get("count", 0) > 0:
                problems.append(f"repair histogram '{name}' is empty")

    if require_ranked_scale:
        for name in RANKED_SCALE_POSITIVE_COUNTERS:
            if not doc["counters"].get(name, 0) > 0:
                problems.append(f"counter '{name}' is not > 0")
        for name in RANKED_SCALE_GAUGES:
            if name not in doc["gauges"]:
                problems.append(f"no ranked-scale gauge '{name}'")
        for name, bound in RANKED_SCALE_BOUNDED_GAUGES:
            value = doc["gauges"].get(name)
            if not _is_number(value):
                problems.append(f"no ranked-scale gauge '{name}'")
            elif not 0 < value < bound:
                problems.append(
                    f"gauge '{name}' is {value}, expected in (0, {bound})"
                )
        for name, expected in RANKED_SCALE_EXACT_GAUGES:
            value = doc["gauges"].get(name)
            if not _is_number(value):
                problems.append(f"no ranked-scale gauge '{name}'")
            elif value != expected:
                problems.append(
                    f"gauge '{name}' is {value}, expected {expected} "
                    "(append took the rebuild path)"
                )

    if require_sessions:
        for name in SESSION_POSITIVE_COUNTERS:
            if not doc["counters"].get(name, 0) > 0:
                problems.append(f"session counter '{name}' is not > 0")
        for name in SESSION_COUNTER_NAMES:
            if name not in doc["counters"]:
                problems.append(f"no session counter '{name}'")
        for name in SESSION_GAUGE_NAMES:
            if name not in doc["gauges"]:
                problems.append(f"no session gauge '{name}'")
        for name, bound in SESSION_MIN_GAUGES:
            value = doc["gauges"].get(name)
            if not _is_number(value):
                problems.append(f"no session gauge '{name}'")
            elif value < bound:
                problems.append(
                    f"gauge '{name}' is {value}, expected >= {bound}"
                )
        for name, bound in SESSION_BOUNDED_GAUGES:
            value = doc["gauges"].get(name)
            if not _is_number(value):
                problems.append(f"no session gauge '{name}'")
            elif not 0 < value <= bound:
                problems.append(
                    f"gauge '{name}' is {value}, expected in (0, {bound}]"
                )
        for name in SESSION_HISTOGRAM_NAMES:
            if name not in doc["histograms"]:
                problems.append(f"no session histogram '{name}'")
            elif not doc["histograms"][name].get("count", 0) > 0:
                problems.append(f"session histogram '{name}' is empty")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="snapshot JSON files")
    parser.add_argument(
        "--require-pipeline",
        action="store_true",
        help="also require block-cache/link/scheduler/page-turn families",
    )
    parser.add_argument(
        "--require-faults",
        action="store_true",
        help="also require fault-injection/retry/breaker families with "
        "nonzero fault and retry counts",
    )
    parser.add_argument(
        "--require-repair",
        action="store_true",
        help="also require anti-entropy repair families with nonzero "
        "repair evidence and a zero under-replicated gauge",
    )
    parser.add_argument(
        "--require-ranked-scale",
        action="store_true",
        help="also require the ranked catalog-scale evidence: postings "
        "skipped, a < 0.5 pruned visit fraction, sublinear cost growth, "
        "and the Append stats-delta proof",
    )
    parser.add_argument(
        "--require-sessions",
        action="store_true",
        help="also require the SessionManager storm evidence: nonzero "
        "admission/queue/reap/close counters, non-empty per-event "
        "latency histograms, >= 2000 peak concurrent sessions and a "
        "bounded class fairness ratio",
    )
    args = parser.parse_args(argv)

    failed = False
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            print(f"{path}: FAIL: {err}")
            failed = True
            continue
        is_trace = (
            isinstance(doc, dict) and doc.get("schema") == TRACE_SCHEMA
        )
        if is_trace:
            problems = validate_trace(doc)
        else:
            problems = validate(
                doc,
                require_pipeline=args.require_pipeline,
                require_faults=args.require_faults,
                require_repair=args.require_repair,
                require_ranked_scale=args.require_ranked_scale,
                require_sessions=args.require_sessions,
            )
        if problems:
            failed = True
            print(f"{path}: FAIL")
            for problem in problems:
                print(f"  - {problem}")
        elif is_trace:
            spans = doc["spans"]
            traces = len({s["trace_id"] for s in spans})
            print(
                f"{path}: OK (bench={doc['bench']!r}, {len(spans)} spans, "
                f"{traces} traces)"
            )
        else:
            counters = len(doc["counters"])
            gauges = len(doc["gauges"])
            histograms = len(doc["histograms"])
            print(
                f"{path}: OK (bench={doc['bench']!r}, "
                f"workers={doc['workers']}, {counters} counters, "
                f"{gauges} gauges, {histograms} histograms)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
