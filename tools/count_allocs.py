#!/usr/bin/env python3
"""Heap allocations per executed simulation event, for one bench run.

Builds the LD_PRELOAD malloc counter (tools/malloc_count/malloc_count.cc)
into a temporary directory, runs BENCH ARGS... under it with `--json`
appended, and prints the process's malloc calls and malloc calls per
executed event. The event count is the `events` field of the bench's
--json envelope, which covers one simulation run. A bench that re-runs
its seed to check reproducibility (kv_soak, chaos_soak) executes those
events once per run: pass --runs 2 so the ratio divides by both.

The simulator is deterministic, so for one binary the count repeats
exactly; a changed count is a changed program. Compare Release builds
made with the same compiler.

Usage:
  tools/count_allocs.py [--runs N] BENCH [ARGS...]
  tools/count_allocs.py --runs 2 build/bench/kv_soak --short
  tools/count_allocs.py build/bench/mmio_forwarding

Exit 0 = counted; otherwise the bench's own exit code (its output is
printed) or 2 for a usage or build error. Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

COUNTER_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "malloc_count", "malloc_count.cc")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Count a bench's malloc calls per executed event.")
    parser.add_argument("--runs", type=int, default=1,
                        help="simulation runs the bench makes of the "
                             "enveloped seed (kv_soak, chaos_soak: 2)")
    parser.add_argument("bench", help="bench binary that accepts --json PATH")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="arguments passed to the bench")
    opts = parser.parse_args()
    if opts.runs < 1:
        parser.error("--runs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="count_allocs_") as tmp:
        lib = os.path.join(tmp, "malloc_count.so")
        cxx = os.environ.get("CXX", "c++")
        build = subprocess.run(
            [cxx, "-O2", "-shared", "-fPIC", "-o", lib, COUNTER_SRC],
            capture_output=True, text=True)
        if build.returncode != 0:
            sys.stderr.write(build.stdout + build.stderr)
            return 2

        count_path = os.path.join(tmp, "mallocs.txt")
        json_path = os.path.join(tmp, "bench.json")
        env = dict(os.environ, LD_PRELOAD=lib, MALLOC_COUNT_OUT=count_path)
        run = subprocess.run([opts.bench, *opts.args, "--json", json_path],
                             env=env, capture_output=True, text=True)
        if run.returncode != 0:
            sys.stdout.write(run.stdout)
            sys.stderr.write(run.stderr)
            return run.returncode

        with open(count_path) as f:
            mallocs = int(f.read())
        with open(json_path) as f:
            per_run = int(json.load(f)["events"])

    events = per_run * opts.runs
    print(f"bench:            {' '.join([opts.bench, *opts.args])}")
    print(f"malloc calls:     {mallocs}")
    print(f"events executed:  {events} ({opts.runs} run(s) x {per_run})")
    print(f"malloc per event: {mallocs / events:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
