#!/usr/bin/env python3
"""Schema validation for the observability JSON artifacts CI uploads.

Two artifact shapes, both produced by src/obs/:

  BENCH_*.json  (obs::WriteBenchJson)
    {"bench": str, "sim_ns": int >= 0, "events": int >= 0,
     "host": {"wall_ns": int >= 0, "events_per_wall_sec": int >= 0},
     "metrics": [series...]}
    where each series is
      {"name": str, "labels": {str: str}, "kind": "counter",   "value": int>=0}
      {"name": str, "labels": {str: str}, "kind": "gauge",     "value": int}
      {"name": str, "labels": {str: str}, "kind": "histogram",
       "count": int>=0, "mean": num, "min": int, "max": int,
       "p50": int, "p90": int, "p99": int, "p999": int}
    (name, sorted labels) must be unique across the series list — the
    registry guarantees it, and a duplicate means the exporter regressed.

  Chrome trace_event JSON  (obs::Tracer::WriteChromeTrace, --trace)
    {"displayTimeUnit": "ns", "traceEvents": [event...]}
    with each event a complete ("ph": "X") slice carrying name/ts/dur/pid
    and trace ids in args. This is what chrome://tracing and
    ui.perfetto.dev ingest; the check here guards the invariants the
    viewer is silent about (negative durations, missing ids) and the
    span tree: every non-zero parent_span_id must name a span of the same
    trace_id, and every trace must have exactly one root
    (parent_span_id 0). A component that traced into another tracer, or
    a root that was never ended, leaves an orphan or a rootless trace.

Usage:
  tools/check_obs_json.py --bench BENCH_chaos.json [more.json...]
  tools/check_obs_json.py --bench --require rpc.shed,mmio.retries x.json
  tools/check_obs_json.py --trace trace.json
  tools/check_obs_json.py file.json           # sniff the shape per file

`--require` names series that MUST be present in every bench file — the
overload/backpressure counters CI gates on: a refactor that silently
drops the `rpc.shed` series would otherwise pass schema validation while
the soak gate quietly stops measuring anything.

Exit 0 = all files valid, 1 = violations (printed one per line).
Stdlib only; runs on the bare CI runner.
"""

import argparse
import json
import sys

HIST_FIELDS = ("count", "mean", "min", "max", "p50", "p90", "p99", "p999")


def _err(errors, path, where, msg):
    errors.append("%s: %s: %s" % (path, where, msg))


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_series(path, i, s, seen_keys, errors):
    where = "metrics[%d]" % i
    if not isinstance(s, dict):
        _err(errors, path, where, "series is not an object")
        return
    name = s.get("name")
    if not isinstance(name, str) or not name:
        _err(errors, path, where, "missing/empty 'name'")
        name = "?"
    where = "metrics[%d] (%s)" % (i, name)
    labels = s.get("labels", {})
    if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in labels.items()):
        _err(errors, path, where, "'labels' must map str -> str")
        labels = {}
    key = (name, tuple(sorted(labels.items())))
    if key in seen_keys:
        _err(errors, path, where, "duplicate series (name+labels)")
    seen_keys.add(key)

    kind = s.get("kind")
    if kind == "counter":
        v = s.get("value")
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            _err(errors, path, where, "counter 'value' must be int >= 0")
    elif kind == "gauge":
        v = s.get("value")
        if not isinstance(v, int) or isinstance(v, bool):
            _err(errors, path, where, "gauge 'value' must be int")
    elif kind == "histogram":
        for f in HIST_FIELDS:
            v = s.get(f)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                _err(errors, path, where,
                     "histogram missing numeric '%s'" % f)
        c, mn, mx = s.get("count"), s.get("min"), s.get("max")
        if isinstance(c, int) and c < 0:
            _err(errors, path, where, "histogram count < 0")
        if (isinstance(c, int) and c > 0 and isinstance(mn, int)
                and isinstance(mx, int) and mn > mx):
            _err(errors, path, where, "histogram min > max")
        # Percentiles of a log-bucketed histogram are monotone in p.
        ps = [s.get(f) for f in ("p50", "p90", "p99", "p999")]
        if all(isinstance(p, (int, float)) for p in ps) and ps != sorted(ps):
            _err(errors, path, where, "percentiles not monotone: %s" % ps)
    else:
        _err(errors, path, where, "unknown kind %r" % kind)


def check_required(path, doc, required, errors):
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    names = {s.get("name") for s in metrics
             if isinstance(s, dict)} if isinstance(metrics, list) else set()
    for r in required:
        if r not in names:
            _err(errors, path, "require",
                 "required series %r is absent from the snapshot" % r)


def check_bench(path, doc, errors):
    if not isinstance(doc, dict):
        _err(errors, path, "top level", "not a JSON object")
        return
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        _err(errors, path, "top level", "missing/empty 'bench'")
    sim_ns = doc.get("sim_ns")
    if not _is_count(sim_ns):
        _err(errors, path, "top level", "'sim_ns' must be int >= 0")
    if not _is_count(doc.get("events")):
        _err(errors, path, "top level", "'events' must be int >= 0")
    host = doc.get("host")
    if not isinstance(host, dict):
        _err(errors, path, "top level", "missing 'host' object")
    else:
        for f in ("wall_ns", "events_per_wall_sec"):
            if not _is_count(host.get(f)):
                _err(errors, path, "host", "'%s' must be int >= 0" % f)
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        _err(errors, path, "top level", "'metrics' must be a list")
        return
    if not metrics:
        _err(errors, path, "top level", "empty 'metrics' — exporter wrote "
             "a snapshot with no series")
    seen = set()
    for i, s in enumerate(metrics):
        check_series(path, i, s, seen, errors)


def check_trace(path, doc, errors):
    if not isinstance(doc, dict):
        _err(errors, path, "top level", "not a JSON object")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        _err(errors, path, "top level", "missing 'traceEvents' list")
        return
    if not events:
        _err(errors, path, "top level", "empty trace")
    spans = []  # (where, trace_id, span_id, parent_span_id)
    for i, e in enumerate(events):
        where = "traceEvents[%d]" % i
        if not isinstance(e, dict):
            _err(errors, path, where, "event is not an object")
            continue
        if e.get("ph") != "X":
            _err(errors, path, where, "expected complete event ph='X', "
                 "got %r" % e.get("ph"))
        if not isinstance(e.get("name"), str) or not e.get("name"):
            _err(errors, path, where, "missing span 'name'")
        for f in ("ts", "dur"):
            v = e.get(f)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                _err(errors, path, where, "missing numeric '%s'" % f)
            elif v < 0:
                _err(errors, path, where, "negative '%s': %s" % (f, v))
        if not isinstance(e.get("pid"), int):
            _err(errors, path, where, "missing int 'pid' (simulated host)")
        args = e.get("args", {})
        if not isinstance(args, dict) or not isinstance(
                args.get("trace_id"), int) or args.get("trace_id", 0) < 1:
            _err(errors, path, where, "args.trace_id must be int >= 1")
            continue
        span_id, parent = args.get("span_id"), args.get("parent_span_id")
        if not _is_count(span_id) or span_id < 1 or not _is_count(parent):
            _err(errors, path, where, "args.span_id must be int >= 1 and "
                 "args.parent_span_id int >= 0")
            continue
        spans.append((where, args["trace_id"], span_id, parent))
    check_parentage(path, spans, errors)


def check_parentage(path, spans, errors):
    """Every parent names a span of its own trace; one root per trace."""
    ids = {}    # trace_id -> span ids
    roots = {}  # trace_id -> root count
    for _, trace, span, parent in spans:
        ids.setdefault(trace, set()).add(span)
        roots[trace] = roots.get(trace, 0) + (parent == 0)
    for where, trace, span, parent in spans:
        if parent != 0 and parent not in ids[trace]:
            _err(errors, path, where, "span %d: parent_span_id %d names no "
                 "span of trace %d" % (span, parent, trace))
    for trace in sorted(roots):
        if roots[trace] != 1:
            _err(errors, path, "trace %d" % trace,
                 "%d root spans, expected exactly 1" % roots[trace])


def sniff(doc):
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "trace"
    return "bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="JSON artifacts to validate")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--bench", action="store_true",
                      help="treat all files as BENCH metric snapshots")
    mode.add_argument("--trace", action="store_true",
                      help="treat all files as Chrome trace_event JSON")
    ap.add_argument("--require", default="",
                    help="comma-separated series names that must be present "
                         "in every bench snapshot")
    args = ap.parse_args()
    required = [r for r in args.require.split(",") if r]
    if required and args.trace:
        ap.error("--require only applies to bench snapshots")

    errors = []
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            _err(errors, path, "load", str(e))
            continue
        shape = ("bench" if args.bench else
                 "trace" if args.trace else sniff(doc))
        (check_bench if shape == "bench" else check_trace)(path, doc, errors)
        if shape == "bench" and required:
            check_required(path, doc, required, errors)
        if not errors:
            if shape == "bench":
                n = len(doc.get("metrics", []))
                print("%s: OK (bench=%s, %d series)" %
                      (path, doc.get("bench"), n))
            else:
                events = doc.get("traceEvents", [])
                traces = {e["args"]["trace_id"] for e in events}
                print("%s: OK (trace, %d events in %d traces)" %
                      (path, len(events), len(traces)))
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print("check_obs_json: %d violation(s)" % len(errors),
              file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
