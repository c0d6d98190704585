// Overload protection primitives for the pooled-I/O data plane.
//
// The forwarded-MMIO channel is a shared-memory queue: there is no TCP to
// push back for it, so under overload an unprotected path degenerates into
// unbounded queueing, timeout storms, and retry amplification. This header
// collects the pieces every hop composes:
//
//   * Priority classes — control-plane probes/leases vs data-plane
//     doorbells, carried on the RPC wire so a watchdog probe never starves
//     behind a data storm (a wedged-detection false positive under pure
//     overload is the failure mode these kill).
//   * AdmissionController — CoDel-style load shedder at the home agent:
//     sheds data-plane requests when queueing delay stays above target for
//     a full interval, never sheds control plane, and bounds concurrent
//     serves per agent.
//   * CircuitBreaker — per-device closed/open/half-open breaker that
//     fast-fails calls into a failing device and feeds the orchestrator's
//     existing quarantine machinery through an on-open callback.
//
// All state is plain arithmetic on the one simulated clock — deterministic,
// so chaos soaks over these policies replay bit-for-bit.
#ifndef SRC_MSG_BACKPRESSURE_H_
#define SRC_MSG_BACKPRESSURE_H_

#include <cstdint>
#include <functional>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/registry.h"
#include "src/sim/stats.h"

namespace cxlpool::msg {

// Two-level priority carried in the RPC request header. Control plane
// (watchdog probes, reports, leases, epoch pushes, migrations) is never
// shed and jumps client-side send queues; data plane (forwarded doorbells)
// is what backpressure acts on.
inline constexpr uint8_t kPriorityControl = 0;
inline constexpr uint8_t kPriorityData = 1;

// CoDel-style admission control for a home agent's serve loops. The signal
// is per-request sojourn time (send to dequeue — both ends share the sim
// clock, so it is exact, no clock exchange needed). Sustained sojourn above
// `target` for a full `interval` enters the dropping state; drops then
// repeat on the classic interval/sqrt(count) cadence until the queue drains
// below target. Control-plane requests are observed (histograms) but never
// shed and never advance the CoDel state.
class AdmissionController {
 public:
  struct Options {
    // Queueing-delay target; sojourn persistently above this sheds.
    Nanos target = 5 * kMicrosecond;
    // How long sojourn must stay above target before the first shed.
    Nanos interval = 100 * kMicrosecond;
    // Bound on concurrently served requests across every serve loop bound
    // to this controller (per home agent). 0 = unlimited.
    uint32_t max_inflight = 0;
  };

  // Counts under `scope`: the per-priority sojourn histograms
  // rpc.queue_delay_ns{priority=control|data}, the agent.inflight gauge,
  // and the counters admission.observed (requests seen, all priorities),
  // admission.shed (CoDel drops) and admission.inflight_rejects
  // (max_inflight refusals).
  explicit AdmissionController(const obs::Scope& scope)
      : AdmissionController(scope, Options()) {}
  AdmissionController(const obs::Scope& scope, Options options);

  // Records `sojourn` and decides whether to shed. Only data-priority
  // requests are ever shed (and only they drive the CoDel state).
  bool ShouldShed(Nanos sojourn, uint8_t priority, Nanos now);

  // Inflight bound; false means reject with kOverloaded. Balance every
  // successful TryEnterServe with ExitServe.
  bool TryEnterServe();
  void ExitServe();

  uint32_t inflight() const { return inflight_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  uint32_t inflight_ = 0;
  // CoDel state (data priority only).
  Nanos first_above_ = 0;  // 0 = sojourn currently below target
  bool dropping_ = false;
  Nanos drop_next_ = 0;
  uint32_t drop_count_ = 0;
  sim::Histogram* control_hist_;
  sim::Histogram* data_hist_;
  obs::Gauge* inflight_gauge_;
  obs::Counter* observed_;
  obs::Counter* shed_;
  obs::Counter* inflight_rejects_;
};

// Per-device circuit breaker. Consecutive transport-level failures
// (kDeadlineExceeded / kUnavailable — a peer that answers kOverloaded is
// alive and must NOT trip the breaker) open it; while open every call
// fast-fails without touching the wire. After `open_duration` the breaker
// half-opens and lets probes through: enough successes close it, any
// failure re-opens. The on-open callback is how it feeds the
// orchestrator's quarantine/probation machinery instead of duplicating it.
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

  struct Options {
    // Consecutive recordable failures that trip the breaker. Must be >= 1.
    uint32_t failure_threshold = 5;
    Nanos open_duration = 200 * kMicrosecond;
    // Consecutive half-open successes required to close.
    uint32_t half_open_successes = 2;
  };

  // Counts under `scope`: breaker.opens, breaker.fast_fails (calls refused
  // while open), breaker.probes (half-open attempts allowed through), and
  // the breaker.state gauge (the State value, updated on every transition).
  explicit CircuitBreaker(const obs::Scope& scope) : CircuitBreaker(scope, Options()) {}
  CircuitBreaker(const obs::Scope& scope, Options options);

  // Invoked (synchronously) each time the breaker transitions to kOpen.
  void OnOpen(std::function<void()> callback) { on_open_ = std::move(callback); }

  // False = fail fast (open and not yet probe time). Lazily half-opens
  // once open_duration has elapsed.
  bool Allow(Nanos now);
  void RecordSuccess(Nanos now);
  void RecordFailure(Nanos now);
  // True for the failure codes that should count against the breaker.
  static bool IsBreakerFailure(const Status& status) {
    return status.code() == StatusCode::kDeadlineExceeded ||
           status.code() == StatusCode::kUnavailable;
  }

  State state(Nanos now);

 private:
  void Trip(Nanos now);
  void SetState(State state);

  Options options_;
  State state_ = State::kClosed;
  uint32_t consecutive_failures_ = 0;
  uint32_t half_open_streak_ = 0;
  Nanos opened_at_ = 0;
  std::function<void()> on_open_;
  obs::Gauge* state_gauge_;
  obs::Counter* opens_;
  obs::Counter* fast_fails_;
  obs::Counter* probes_;
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_BACKPRESSURE_H_
