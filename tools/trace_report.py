#!/usr/bin/env python3
"""Latency attribution report for MINOS trace snapshots (minos.trace.v1).

Usage:
    trace_report.py TRACE.json [TRACE.json ...]
    trace_report.py --check TRACE_ranked_query.json
    trace_report.py --top 5 TRACE_shard_scaling.json

Reads the trace JSON that `minos::obs::Tracer::ToJson` emits (and the
benches write as TRACE_<bench>.json next to BENCH_<bench>.json), builds
the span tree from the explicit span_id/parent_span_id links, and
reports where the simulated time of each request actually went:

  - an attribution table of exclusive (self) time per sanitized span
    name — per-object ids collapse into "%id", so "open#17" and
    "open#23" aggregate into one row; "scheduler.queue_wait" spans
    split by their "lane" tag instead, so time a request spent queued
    behind background work (repair transfers, prefetch staging) lands
    in a different row than time spent behind other foreground pages;
  - a queue-wait contention summary whenever the trace carries
    "scheduler.queue_wait" spans: total wait per lane and the share of
    all waiting charged to each, the direct read on whether repair or
    prefetch traffic is starving foreground fetches at the arm;
  - the critical path of the slowest root span: at every level the
    earliest-started child claims the time it covers, later overlapping
    children claim only the remainder (SimClock rewinds make sibling
    scatter/prefetch work overlap on one timeline), and gaps between
    children are the parent's own self time — so the exclusive times
    sum exactly to the root's duration, never more, never less.

With --check the report runs as a gate: every parent link must resolve
inside its own trace (no orphans), spans must be well-formed (end >=
start), every "scheduler.queue_wait" span must carry a "lane" tag, and
when the snapshot carries a "measured_us" header the root durations
must reconcile with it within --tolerance (default 1%).

With --baseline DIR the attribution table is additionally diffed
against the committed baseline DIR/TRACE_<bench>.baseline.json
(schema minos.trace.baseline.v1): any attribution row whose exclusive
time regresses more than --regression (default 25%) over its baseline
value — with an absolute floor of --regression-floor-us (default 1000)
so micro-rows cannot flake the gate — fails, as does the same
regression of the root total. A missing baseline file fails too: every
traced bench must commit one. --write-baseline DIR distills the current
run into that file instead of gating (regenerate whenever a cost-model
change moves attribution on purpose).

Exit status: 0 when every file passes, 1 otherwise.
"""

import argparse
import json
import os
import re
import sys

SCHEMA = "minos.trace.v1"
BASELINE_SCHEMA = "minos.trace.baseline.v1"

# The scheduler emits one of these per request that sat queued behind
# earlier accesses; the "lane" tag says whose fault the wait was.
QUEUE_WAIT = "scheduler.queue_wait"

_ID_RUN = re.compile(r"[0-9]+")


def sanitize(name):
    """Collapses per-object id runs, mirroring obs::SanitizeSpanName."""
    return _ID_RUN.sub("%id", name)


def span_lane(span):
    """The "lane" tag of a span, or None when absent/non-string."""
    tags = span.get("tags")
    lane = tags.get("lane") if isinstance(tags, dict) else None
    return lane if isinstance(lane, str) and lane else None


def attribution_key(span):
    """Row name for the attribution table. Queue-wait spans keep their
    lane visible so contention from background repair/prefetch traffic
    never aggregates into the same row as foreground-on-foreground
    queueing."""
    key = sanitize(span["name"])
    if span["name"] == QUEUE_WAIT:
        lane = span_lane(span)
        if lane is not None:
            key = f"{key}[{lane}]"
    return key


def load(path):
    """Returns (doc, problems). doc is None when unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        return None, [str(err)]
    problems = []
    if not isinstance(doc, dict):
        return None, ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema tag is not '{SCHEMA}'")
    if not isinstance(doc.get("spans"), list):
        problems.append("missing list field 'spans'")
    if problems:
        return None, problems
    return doc, []


def check_spans(spans):
    """Structural problems: malformed spans, orphaned parent links."""
    problems = []
    by_trace = {}
    for i, span in enumerate(spans):
        if not isinstance(span, dict):
            problems.append(f"span[{i}] is not an object")
            continue
        name = span.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"span[{i}] has no name")
            continue
        for field in ("trace_id", "span_id", "parent_span_id", "start_us",
                      "end_us"):
            if not isinstance(span.get(field), int):
                problems.append(f"span '{name}' field '{field}' not integer")
        if problems:
            continue
        if span["end_us"] < span["start_us"]:
            problems.append(f"span '{name}' ends before it starts")
        if name == QUEUE_WAIT and span_lane(span) is None:
            problems.append(
                f"span '{name}' (span_id {span['span_id']}) has no "
                f"'lane' tag; contention cannot be attributed"
            )
        by_trace.setdefault(span["trace_id"], {})[span["span_id"]] = span
    if problems:
        return problems
    for trace_id, members in by_trace.items():
        for span in members.values():
            parent = span["parent_span_id"]
            if parent != 0 and parent not in members:
                problems.append(
                    f"orphan span '{span['name']}' (trace {trace_id}): "
                    f"parent {parent} not in trace"
                )
    return problems


def build_children(spans):
    """span_id -> children sorted by start time (ties: span_id order)."""
    children = {}
    for span in spans:
        if span["parent_span_id"] != 0:
            children.setdefault(span["parent_span_id"], []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s["start_us"], s["span_id"]))
    return children


def attribute(span, lo, hi, children, exclusive, credited):
    """Splits the credited window [lo, hi] of `span` among its children.

    Children are visited in start order; the earliest-started child
    claims the interval it covers, a later overlapping child only the
    part past the earlier one's end. Gaps belong to the parent. The
    exclusive times of the whole subtree sum to exactly hi - lo.
    """
    cursor = lo
    self_us = 0
    for child in children.get(span["span_id"], ()):
        start = min(max(child["start_us"], cursor), hi)
        end = min(max(child["end_us"], cursor), hi)
        self_us += start - cursor
        attribute(child, start, end, children, exclusive, credited)
        cursor = end
    self_us += hi - cursor
    key = attribution_key(span)
    exclusive[key] = exclusive.get(key, 0) + self_us
    credited[span["span_id"]] = hi - lo


def queue_wait_by_lane(spans):
    """lane -> (span count, total wall duration us) of queue-wait spans.

    Uses raw span durations rather than attributed exclusive time: a
    queue-wait span is a leaf, so both agree, and the per-lane totals
    answer the contention question directly — how long did requests sit
    behind the arm, and on behalf of which lane.
    """
    lanes = {}
    for span in spans:
        if span["name"] != QUEUE_WAIT:
            continue
        lane = span_lane(span) or "(untagged)"
        count, us = lanes.get(lane, (0, 0))
        lanes[lane] = (count + 1, us + span["end_us"] - span["start_us"])
    return lanes


def critical_path(root, children, credited):
    """Chain from the root following the largest-credited child."""
    path = []
    span = root
    while span is not None:
        path.append(span)
        kids = children.get(span["span_id"], ())
        span = max(
            (k for k in kids if credited.get(k["span_id"], 0) > 0),
            key=lambda k: credited[k["span_id"]],
            default=None,
        )
    return path


def baseline_path(directory, bench):
    """Path of the committed baseline for `bench` inside `directory`."""
    safe = "".join(c if c.isalnum() else "_" for c in bench)
    return os.path.join(directory, f"TRACE_{safe}.baseline.json")


def distill(bench, exclusive, root_total_us):
    """The committed-baseline document for one trace report."""
    return {
        "schema": BASELINE_SCHEMA,
        "bench": bench,
        "root_total_us": root_total_us,
        "attribution": {k: exclusive[k] for k in sorted(exclusive)},
    }


def diff_baseline(path, bench, exclusive, total, regression, floor_us):
    """Problems from comparing this run's attribution to its baseline.

    A row fails when it grows by more than `regression` (fractional) AND
    by more than `floor_us` absolute — virtual time is deterministic, so
    anything past the floor is a real cost change, and the percentage
    keeps intentional small cost-model tweaks from tripping the gate.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            base = json.load(f)
    except OSError:
        return [f"no committed baseline at {path} (run --write-baseline)"]
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        return [f"unreadable baseline {path}: {err}"]
    if not isinstance(base, dict) or base.get("schema") != BASELINE_SCHEMA:
        return [f"baseline {path} schema tag is not '{BASELINE_SCHEMA}'"]
    if base.get("bench") != bench:
        return [
            f"baseline {path} is for bench {base.get('bench')!r}, "
            f"not {bench!r}"
        ]
    problems = []

    def regressed(now, was):
        return now > was * (1.0 + regression) and now - was > floor_us

    base_total = base.get("root_total_us", 0)
    if regressed(total, base_total):
        problems.append(
            f"root total regressed: {total} us vs baseline "
            f"{base_total} us (>{regression * 100:.0f}%)"
        )
    attribution = base.get("attribution", {})
    for name, us in sorted(exclusive.items()):
        was = attribution.get(name)
        if was is None:
            if us > floor_us:
                problems.append(
                    f"attribution row '{name}' ({us} us) absent from "
                    f"baseline (regenerate with --write-baseline)"
                )
            continue
        if regressed(us, was):
            problems.append(
                f"attribution row '{name}' regressed: {us} us vs "
                f"baseline {was} us (>{regression * 100:.0f}%)"
            )
    return problems


def report(doc, path, top, check, tolerance, baseline_dir=None,
           write_baseline_dir=None, regression=0.25, floor_us=1000):
    """Prints the report; returns problems (gate failures) when checking."""
    spans = doc["spans"]
    problems = check_spans(spans)
    if problems:
        return problems

    roots = [s for s in spans if s["parent_span_id"] == 0]
    bench = doc.get("bench", "?")
    traces = len({s["trace_id"] for s in spans})
    dropped = doc.get("dropped_spans", 0)
    print(
        f"{path}: bench={bench!r} spans={len(spans)} traces={traces} "
        f"roots={len(roots)} dropped={dropped}"
    )
    if not spans:
        return ["trace contains no spans"] if check else []

    exclusive = {}
    credited = {}
    children = build_children(spans)
    for root in roots:
        attribute(root, root["start_us"], root["end_us"], children,
                  exclusive, credited)
    total = sum(r["end_us"] - r["start_us"] for r in roots)

    print(f"  attribution (exclusive time, {total} us total):")
    width = max(len(k) for k in exclusive)
    rows = sorted(exclusive.items(), key=lambda kv: -kv[1])
    for name, us in rows[:top]:
        share = 100.0 * us / total if total else 0.0
        print(f"    {name:<{width}}  {us:>12} us  {share:5.1f}%")
    if len(rows) > top:
        rest = sum(us for _, us in rows[top:])
        share = 100.0 * rest / total if total else 0.0
        print(f"    {'(other)':<{width}}  {rest:>12} us  {share:5.1f}%")

    lanes = queue_wait_by_lane(spans)
    if lanes:
        waited = sum(us for _, us in lanes.values())
        print(f"  queue-wait contention ({waited} us total):")
        for lane, (count, us) in sorted(
            lanes.items(), key=lambda kv: -kv[1][1]
        ):
            share = 100.0 * us / waited if waited else 0.0
            print(
                f"    {lane:<12} {count:>6} waits  {us:>12} us  "
                f"{share:5.1f}%"
            )

    slowest = max(roots, key=lambda r: r["end_us"] - r["start_us"])
    slow_us = slowest["end_us"] - slowest["start_us"]
    print(f"  critical path of slowest root ({slow_us} us):")
    for span in critical_path(slowest, children, credited):
        us = credited.get(span["span_id"], 0)
        share = 100.0 * us / slow_us if slow_us else 0.0
        tags = span.get("tags", {})
        suffix = ""
        if isinstance(tags, dict) and tags:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(tags.items()))
            suffix = f"  [{pairs}]"
        print(f"    {span['name']:<24} {us:>12} us  {share:5.1f}%{suffix}")

    problems = []
    measured = doc.get("measured_us")
    if isinstance(measured, int) and measured >= 0:
        drift = abs(total - measured)
        budget = int(measured * tolerance)
        verdict = "ok" if drift <= budget else "FAIL"
        print(
            f"  reconciliation: roots {total} us vs measured {measured} us "
            f"(drift {drift} us, budget {budget} us) {verdict}"
        )
        if check and drift > budget:
            problems.append(
                f"root durations ({total} us) do not reconcile with "
                f"measured_us ({measured} us) within "
                f"{tolerance * 100:.1f}%"
            )
    elif check:
        print("  reconciliation: no measured_us header, skipped")

    if write_baseline_dir is not None:
        out = baseline_path(write_baseline_dir, bench)
        with open(out, "w", encoding="utf-8") as f:
            json.dump(distill(bench, exclusive, total), f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print(f"  baseline written: {out}")
    elif baseline_dir is not None:
        base_file = baseline_path(baseline_dir, bench)
        base_problems = diff_baseline(
            base_file, bench, exclusive, total, regression, floor_us
        )
        verdict = "FAIL" if base_problems else "ok"
        print(f"  baseline diff vs {base_file}: {verdict}")
        problems.extend(base_problems)
    return problems


def chrome_events(doc):
    """minos.trace.v1 spans -> Chrome/Perfetto complete (ph:"X") events.

    Each trace renders as its own track (tid), so overlapping scatter and
    prefetch work sits side by side; args carry the span's ids (as
    strings) and then its tags.
    """
    tids = {}
    events = []
    for span in doc["spans"]:
        tid = tids.setdefault(span["trace_id"], len(tids) + 1)
        args = {
            "trace_id": str(span["trace_id"]),
            "span_id": str(span["span_id"]),
            "parent_span_id": str(span["parent_span_id"]),
        }
        tags = span.get("tags", {})
        if isinstance(tags, dict):
            args.update(tags)
        events.append({
            "name": span["name"],
            "cat": "minos",
            "ph": "X",
            "ts": span["start_us"],
            "dur": span["end_us"] - span["start_us"],
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    return {"displayTimeUnit": "ms", "traceEvents": events}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="trace JSON files")
    parser.add_argument(
        "--chrome",
        metavar="OUT",
        help="also convert the (single) input to a Chrome/Perfetto "
        "trace-event file at OUT",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate mode: fail on orphans, malformed spans, or "
        "reconciliation drift beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="allowed |roots - measured| / measured (default 0.01)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=12,
        help="attribution rows to print before folding into (other)",
    )
    parser.add_argument(
        "--baseline",
        metavar="DIR",
        help="diff attribution against DIR/TRACE_<bench>.baseline.json "
        "and fail on regression beyond --regression",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="DIR",
        help="write (overwrite) DIR/TRACE_<bench>.baseline.json from "
        "this run instead of gating against it",
    )
    parser.add_argument(
        "--regression",
        type=float,
        default=0.25,
        help="allowed fractional growth of any attribution row or the "
        "root total over its baseline (default 0.25)",
    )
    parser.add_argument(
        "--regression-floor-us",
        type=int,
        default=1000,
        help="absolute growth (us) a row must also exceed to fail the "
        "baseline gate (default 1000)",
    )
    args = parser.parse_args(argv)
    if args.baseline and args.write_baseline:
        parser.error("--baseline and --write-baseline are exclusive")
    if args.chrome and len(args.files) != 1:
        parser.error("--chrome takes exactly one input file")

    failed = False
    for path in args.files:
        doc, problems = load(path)
        if doc is not None:
            problems = report(doc, path, args.top, args.check,
                              args.tolerance,
                              baseline_dir=args.baseline,
                              write_baseline_dir=args.write_baseline,
                              regression=args.regression,
                              floor_us=args.regression_floor_us)
            if not problems and args.chrome:
                with open(args.chrome, "w", encoding="utf-8") as f:
                    json.dump(chrome_events(doc), f)
                    f.write("\n")
                print(f"  chrome trace: {args.chrome}")
        if problems:
            failed = True
            print(f"{path}: FAIL")
            for problem in problems:
                print(f"  - {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
