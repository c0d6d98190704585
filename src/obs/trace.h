// Distributed tracing across simulated hosts.
//
// A TraceContext (trace id + parent span id) is minted at the origin of an
// operation (e.g. a forwarded MMIO write) and propagated in-band: the RPC
// request wire format carries it across the CXL channel, so the home agent's
// spans attach to the client's trace even though the two hosts share no
// memory besides the pool. Spans carry sim-clock timestamps and export as
// Chrome/Perfetto trace_event JSON (`chrome://tracing` loads the file
// directly; pid = simulated host, tid = trace id).
//
// Cost model: every hook site holds a nullable Tracer*. With tracing off the
// pointer is null and each hook is one branch — the same pattern as
// cxl::CoherenceObserver. Tracing itself is pure observation: it never
// advances the sim clock, draws randomness, or changes frame sizes (the
// trace fields ride in the request header whether or not they are set), so
// same-seed runs are bit-identical with tracing on or off.
//
// Span lifetime is explicit: End(now) publishes the span; dropping an active
// Span without End() loses it (counted in dropped_spans()). This is
// deliberate — an explicit End is what lets simlint's leaked-span rule flag
// leaked spans statically.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/stats.h"

namespace cxlpool::obs {

// Propagated half of a span: enough for a child on another host to attach.
// trace_id 0 means "not traced" — the zero context is what untraced
// operations carry on the wire.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // parent span for downstream work
  bool traced() const { return trace_id != 0; }
};

// A finished span as stored by the tracer and exported to JSON.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root
  const char* name = "";        // static string literal (phase name)
  uint32_t host = 0;            // simulated host the span ran on
  Nanos start = 0;
  Nanos end = 0;
  Nanos duration() const { return end - start; }
};

class Tracer;

// Movable handle for an open span. Default-constructed (or moved-from)
// spans are inert: End() is a no-op and context() is the zero context, so
// call sites never branch on "is tracing on" beyond obtaining the handle.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { MoveFrom(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      Abandon();
      MoveFrom(other);
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { Abandon(); }

  // Publishes the span with the given end timestamp. Idempotent: the first
  // End wins, later calls are no-ops.
  void End(Nanos now);

  // Context children should inherit (this span as parent). Zero when inert.
  TraceContext context() const {
    return active() ? TraceContext{trace_id_, span_id_} : TraceContext{};
  }
  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, uint64_t trace_id, uint64_t span_id, uint64_t parent,
       const char* name, uint32_t host, Nanos start)
      : tracer_(tracer),
        trace_id_(trace_id),
        span_id_(span_id),
        parent_span_id_(parent),
        name_(name),
        host_(host),
        start_(start) {}

  void MoveFrom(Span& other) {
    tracer_ = other.tracer_;
    trace_id_ = other.trace_id_;
    span_id_ = other.span_id_;
    parent_span_id_ = other.parent_span_id_;
    name_ = other.name_;
    host_ = other.host_;
    start_ = other.start_;
    other.tracer_ = nullptr;
  }
  void Abandon();

  Tracer* tracer_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  const char* name_ = "";
  uint32_t host_ = 0;
  Nanos start_ = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a root span, minting a fresh trace id. Ids are small monotonic
  // integers — deterministic, and stable across same-seed runs.
  Span StartTrace(const char* name, uint32_t host, Nanos start);

  // Opens a child span under `parent`. Inert span if `parent` is untraced
  // (the op's origin was not sampled), so propagation composes: untraced
  // contexts stay untraced through every layer.
  Span StartSpan(const char* name, uint32_t host, TraceContext parent,
                 Nanos start);

  // Records an already-finished span and returns its context for further
  // children. Used where the start timestamp traveled on the wire: the
  // receiver materializes the channel-flight span retroactively at dequeue
  // time (start = sender's send time, end = local now).
  TraceContext RecordSpan(const char* name, uint32_t host, TraceContext parent,
                          Nanos start, Nanos end);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t dropped_spans() const { return dropped_spans_; }
  uint64_t trace_count() const { return next_trace_id_ - 1; }

  // All spans of one trace, in recording order.
  std::vector<SpanRecord> TraceSpans(uint64_t trace_id) const;

  // Duration histogram per span name — the per-phase latency breakdown the
  // benches print.
  std::map<std::string, sim::Histogram> PhaseHistograms() const;

  // Chrome trace_event JSON ("X" complete events; ts/dur in microseconds).
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  friend class Span;
  void Finish(const Span& span, Nanos end);

  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_spans_ = 0;
};

// One-branch helpers for hook sites holding a nullable Tracer*.
inline Span MaybeStartTrace(Tracer* tracer, const char* name, uint32_t host,
                            Nanos start) {
  if (tracer == nullptr) {
    return Span();
  }
  return tracer->StartTrace(name, host, start);
}

inline Span MaybeStartSpan(Tracer* tracer, const char* name, uint32_t host,
                           TraceContext parent, Nanos start) {
  if (tracer == nullptr || !parent.traced()) {
    return Span();
  }
  return tracer->StartSpan(name, host, parent, start);
}

}  // namespace cxlpool::obs

#endif  // SRC_OBS_TRACE_H_
