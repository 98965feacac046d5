#!/usr/bin/env python3
"""Diffs BENCH_*.json metric blocks byte-for-byte across runs.

Usage:
    diff_metrics.py BASELINE.json OTHER.json [OTHER.json ...]

The determinism-matrix gate: the same bench run at --workers 0, 1, 2
and 4 must emit bit-identical metric values. Every file's counters, gauges
and histograms sections — plus the bench name and sim_time_us header —
are serialized canonically (sorted keys, exact number text) and
compared against the first file. The `workers` header field is the one
field allowed to differ: it records the worker count itself.

On divergence, every differing entry is printed with both values, so a
nondeterminism bug points straight at the metric that moved.

Exit status: 0 when every file matches the baseline, 1 otherwise.
"""

import json
import sys

# Sections whose contents must match exactly. `workers` is deliberately
# absent: it is the matrix dimension.
COMPARED_HEADERS = ("schema", "bench", "sim_time_us")
COMPARED_SECTIONS = ("counters", "gauges", "histograms")


def canonical(value):
    """Canonical text for a JSON value: sorted keys, repr-exact numbers."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def diff_section(name, base, other, problems):
    """Appends one problem line per divergent entry of a dict section."""
    base = base.get(name, {})
    other = other.get(name, {})
    if not isinstance(base, dict) or not isinstance(other, dict):
        problems.append(f"section '{name}' is not an object in both files")
        return
    for key in sorted(set(base) | set(other)):
        a = canonical(base[key]) if key in base else "<absent>"
        b = canonical(other[key]) if key in other else "<absent>"
        if a != b:
            problems.append(f"{name}.{key}: {a} vs {b}")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    try:
        baseline = load(argv[0])
    except (OSError, json.JSONDecodeError) as err:
        print(f"{argv[0]}: FAIL: {err}")
        return 1

    failed = False
    for path in argv[1:]:
        try:
            other = load(path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: FAIL: {err}")
            failed = True
            continue
        problems = []
        for header in COMPARED_HEADERS:
            a = canonical(baseline.get(header, None))
            b = canonical(other.get(header, None))
            if a != b:
                problems.append(f"{header}: {a} vs {b}")
        for section in COMPARED_SECTIONS:
            diff_section(section, baseline, other, problems)
        if problems:
            failed = True
            print(f"{path}: DIVERGES from {argv[0]} "
                  f"({len(problems)} differences)")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{path}: identical metric blocks "
                  f"(workers={other.get('workers')} vs "
                  f"{baseline.get('workers')})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
