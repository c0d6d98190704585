#!/usr/bin/env python3
"""Tolerance diff between a committed BENCH_*.json snapshot and a fresh run.

The simulator is deterministic per seed, but benchmarks evolve: phases get
added, constants get re-tuned, scheduling order shifts when a subsystem
grows a hop. A byte-exact diff would make every harmless change a red CI
run and train everyone to ignore the gate. This compares at the level the
numbers actually mean:

  counters    |fresh - snap| <= tol * max(|snap|, floor)
  gauges      same rule
  histograms  same rule applied to count, p50, p99 (mean/min/max/p90/p999
              are too jittery to gate on and ride along informationally)

Series have a DIRECTION. Latency and count series are two-sided: moving
either way beyond tolerance is drift worth a look. Throughput-style series
(name containing "per_sec", "goodput", or "throughput") are
higher-is-better: only a DROP beyond tolerance flags; a gain is what the
optimization work is for and is reported informationally, never as drift.
Without this, every perf win would light up the gate it was meant to feed.

A series present in the snapshot but MISSING from the fresh run is always
a regression — that is how a refactor silently stops measuring something.
A series only in the fresh run is reported but tolerated (new phases and
new counters land before their snapshot is refreshed).

The envelope's "events" (events the simulation executed) is exact: the
simulator is deterministic, so any difference is drift — a change to host
code alone must never move it. The "host" block (wall_ns,
events_per_wall_sec) is the simulator's own cost on whatever machine ran
it; it is printed as a fresh/snapshot ratio and never counts as drift.
Snapshots written before these fields existed still compare.

This is a SOFT gate in CI (continue-on-error): its job is to put a diff in
front of a reviewer, not to block merges on a re-tuned constant. Refresh
a snapshot deliberately by re-running the bench and committing the JSON.

Usage:
  tools/compare_bench.py SNAPSHOT.json FRESH.json [--tol 0.25] [--floor 16]

Exit 0 = within tolerance, 1 = drift/missing series, 2 = usage error.
Stdlib only; runs on the bare CI runner.
"""

import argparse
import json
import sys

GATED_HIST_FIELDS = ("count", "p50", "p99")

# Substrings marking a series as higher-is-better. Matching is on the
# series NAME only (not labels): a histogram of latencies stays two-sided
# even when its labels mention a throughput phase.
HIGHER_IS_BETTER_MARKERS = ("per_sec", "goodput", "throughput")


def higher_is_better(name):
    return any(m in name for m in HIGHER_IS_BETTER_MARKERS)


def series_key(s):
    return (s.get("name", "?"),
            tuple(sorted((s.get("labels") or {}).items())))


def load_doc(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    series = {}
    for s in doc.get("metrics", []):
        if isinstance(s, dict):
            series[series_key(s)] = s
    return doc, series


def fmt_key(key):
    name, labels = key
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % kv for kv in labels))


def within(snap_v, fresh_v, tol, floor):
    """|fresh - snap| <= tol * max(|snap|, floor).

    The additive floor keeps tiny counters honest: a snapshot value of 2
    must not fail because the fresh run saw 3 — at that magnitude the
    difference is scheduling noise, not drift."""
    return abs(fresh_v - snap_v) <= tol * max(abs(snap_v), floor)


def compare(snap, fresh, tol, floor):
    drifts, missing, extra, gains = [], [], [], []
    for key, s in sorted(snap.items()):
        f = fresh.get(key)
        if f is None:
            missing.append(fmt_key(key))
            continue
        kind = s.get("kind")
        if f.get("kind") != kind:
            drifts.append("%s: kind changed %r -> %r"
                          % (fmt_key(key), kind, f.get("kind")))
            continue
        if kind in ("counter", "gauge"):
            fields = ("value",)
        elif kind == "histogram":
            fields = GATED_HIST_FIELDS
        else:
            continue
        one_sided = higher_is_better(key[0])
        for field in fields:
            sv, fv = s.get(field), f.get(field)
            if not isinstance(sv, (int, float)) or not isinstance(
                    fv, (int, float)):
                continue
            if within(sv, fv, tol, floor):
                continue
            if one_sided and fv > sv:
                gains.append("%s: %s improved %s -> %s"
                             % (fmt_key(key), field, sv, fv))
                continue
            what = "dropped" if one_sided else "drifted"
            drifts.append("%s: %s %s %s -> %s (> %.0f%% of %s)"
                          % (fmt_key(key), field, what, sv, fv, tol * 100,
                             max(abs(sv), floor)))
    for key in sorted(fresh.keys() - snap.keys()):
        extra.append(fmt_key(key))
    return drifts, missing, extra, gains


def compare_envelope(snap_doc, fresh_doc):
    """Drift lines for the exact event count, and ratio lines for the host
    block. A field absent from either side is skipped."""
    drifts, host = [], []
    se, fe = snap_doc.get("events"), fresh_doc.get("events")
    if isinstance(se, int) and isinstance(fe, int) and se != fe:
        drifts.append("events: %d -> %d (the event count is exact; only a "
                      "change to the simulation may move it)" % (se, fe))
    sh, fh = snap_doc.get("host"), fresh_doc.get("host")
    if isinstance(sh, dict) and isinstance(fh, dict):
        for field in ("wall_ns", "events_per_wall_sec"):
            sv, fv = sh.get(field), fh.get(field)
            if isinstance(sv, (int, float)) and isinstance(fv, (int, float)):
                ratio = "x%.3f" % (fv / sv) if sv else "n/a"
                host.append("%s %s -> %s (%s)" % (field, sv, fv, ratio))
    return drifts, host


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("snapshot", help="committed BENCH_*.json baseline")
    ap.add_argument("fresh", help="JSON from the run under test")
    ap.add_argument("--tol", type=float, default=0.25,
                    help="relative tolerance (default 0.25)")
    ap.add_argument("--floor", type=float, default=16,
                    help="additive floor for small values (default 16)")
    args = ap.parse_args()

    try:
        snap_doc, snap = load_doc(args.snapshot)
        fresh_doc, fresh = load_doc(args.fresh)
    except (OSError, ValueError) as e:
        print("compare_bench: %s" % e, file=sys.stderr)
        return 2
    snap_name = snap_doc.get("bench", "?")
    fresh_name = fresh_doc.get("bench", "?")
    if snap_name != fresh_name:
        print("compare_bench: bench name mismatch: snapshot=%r fresh=%r"
              % (snap_name, fresh_name), file=sys.stderr)
        return 2

    drifts, missing, extra, gains = compare(snap, fresh, args.tol, args.floor)
    event_drifts, host = compare_envelope(snap_doc, fresh_doc)
    drifts += event_drifts
    for m in missing:
        print("MISSING  %s  (in snapshot, absent from fresh run)" % m)
    for d in drifts:
        print("DRIFT    %s" % d)
    for g in gains:
        print("GAIN     %s  (higher-is-better series — not drift)" % g)
    for e in extra:
        print("NEW      %s  (not in snapshot — refresh it when this lands)"
              % e)
    for h in host:
        print("HOST     %s  (host time — informational, never drift)" % h)
    print("compare_bench: %s: %d series, %d drift(s), %d missing, "
          "%d gain(s), %d new"
          % (snap_name, len(snap), len(drifts), len(missing), len(gains),
             len(extra)))
    return 1 if drifts or missing else 0


if __name__ == "__main__":
    sys.exit(main())
