#!/usr/bin/env python3
"""Builds the MINOS benchmark from this checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload storm --seed 1 --seconds 10 --trace 0

Workloads: storm, ingest, browse (see perfbench/README.md).
The first run configures and compiles perfbench/ (which compiles the
library sources under src/) into .bench_build/perfbench; later runs only
re-check the build. Build output goes to stderr. The benchmark's own
stdout passes through unchanged, so its last line is the JSON result.
The exit status is the benchmark's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd, env):
    """Runs one build command; its output goes to stderr on failure."""
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.stderr.write(f"build step failed: {' '.join(cmd)}\n")
        return False
    return True


def build(out):
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(out, "tmp")  # Compiler temporaries stay here.
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"], env):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_step(["cmake", "--build", out, "-j", jobs], env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["storm", "ingest", "browse"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "minos_perfbench")
    sys.stdout.flush()
    done = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
