#!/usr/bin/env python3
"""The repo benchmark: builds perfbench_sim from source, runs one workload,
prints its metrics by name with their units, and ends with one JSON line.

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is non-zero when the build, the run or any correctness check
fails. See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_sim")
RUN_TIMEOUT_S = 170


def load_spec():
    """Workload names, and each metric list as name -> unit in report order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {key: {m["name"]: m["unit"] for m in spec[key]}
             for key in ("end_to_end", "per_layer")}
    return tuple(w["name"] for w in spec["workloads"]), units["end_to_end"], units["per_layer"]


WORKLOADS, END_TO_END, PER_LAYER = load_spec()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds incrementally; the log stays in BUILD."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_sim", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def run_sim(args, workloads=1):
    try:
        proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S * workloads)
    except subprocess.TimeoutExpired:
        fail("perfbench_sim timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"perfbench_sim exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def pick(values, names):
    """The named metrics in report order, and a problem per missing one."""
    missing = [f"metric {name} missing" for name in names if name not in values]
    return {name: values[name] for name in names if name in values}, missing


def end_to_end(d):
    """Metrics and problems of one --trace 0 result.

    Host times arrive rescaled to the reference kernel's nominal speed (see
    sim/harness.h): the sub-windows' mean and their event rate, and the
    set-ups' mean.
    """
    sim = d["sim"]
    m, problems = pick({
        "wall_s": d["host_s_per_window"],
        "events_per_s": d["events_per_host_s"],
        "setup_s": d["setup_s"],
        "peak_rss_mb": d["peak_rss_mb"],
        "sim_p50_ns": sim["p50_ns"],
        "sim_p99_ns": sim["p99_ns"],
        "sim_goodput_ops": sim["goodput_ops"],
        "served_ratio": sim["served"] / sim["attempted"] if sim["attempted"] else 0.0,
        "max_rate_at_slo": d["max_rate_at_slo"],
    }, END_TO_END)
    for name in ("sim_p50_ns", "sim_p99_ns"):
        if m.get(name, 0) < 0:
            problems.append(f"{name}: fewer than 10 samples beyond the percentile; refused")
    for name in ("sim_goodput_ops", "max_rate_at_slo", "served_ratio"):
        if m.get(name, 1) <= 0:
            problems.append(f"{name}: no value ({m[name]})")
    return m, problems


def per_layer(d):
    layers = d["layers"]
    m, problems = pick(layers, PER_LAYER)
    # Bypass predictions: forwarding stays idle on the datapath workloads,
    # the KV and UDP layers stay idle on the control path, and the KV
    # workload reaches the SSD tier.
    w = d["workload"]
    if w in ("kv_zipf", "udp_echo") and layers.get("agent.forwarded_ops", 0) != 0:
        problems.append(f"{w}: agent.forwarded_ops should be 0")
    if w == "mmio_fwd":
        for name in ("kv.requests", "udp.sent", "kv.evictions", "kv.hydrations"):
            if layers.get(name, 0) != 0:
                problems.append(f"mmio_fwd: {name} should be 0")
        if layers.get("agent.forwarded_ops", 0) <= 0:
            problems.append("mmio_fwd: agent.forwarded_ops should be > 0")
    if w == "kv_zipf":
        for name in ("kv.hydrations", "kv.evictions"):
            if layers.get(name, 0) <= 0:
                problems.append(f"kv_zipf: {name} should be > 0")
    return m, problems


def report(workload, metrics, units, checks, problems):
    print(f"== {workload}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")
    for c in checks:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    for p in problems:
        print(f"  [FAIL] {p}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()

    if args.self_test:
        checks = run_sim(["--self-test"])[0]["checks"]
        report("self-test", {}, {}, checks, [])
        ok = all(c["ok"] for c in checks)
        print(json.dumps({"self_test": ok}))
        return 0 if ok else 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = run_sim(["--workload", ",".join(names), "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      workloads=len(names))
    if len(results) != len(names):
        fail("perfbench_sim printed no result")
    units = END_TO_END if args.trace == 0 else PER_LAYER
    correct = True
    attempted = failed = 0
    out = {}
    for d in results:
        metrics, problems = (end_to_end if args.trace == 0 else per_layer)(d)
        checks = d["checks"]
        report(d["workload"], metrics, units, checks, problems)
        correct = correct and not problems and all(c["ok"] for c in checks)
        attempted += int(d["sim"]["attempted"])
        failed += int(d["sim"]["failed"])
        prefix = "" if len(results) == 1 else d["workload"] + "."
        for name, value in metrics.items():
            out[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
