// Minimal RPC over a Channel. Used by the pooling orchestrator/agents and
// by the MMIO forwarding datapath (core/). One client per endpoint; up to
// Options::max_inflight calls may be on the wire concurrently, with
// responses matched back to their caller by call_id (the wire has carried
// call_id since v1 exactly so the client never has to assume FIFO
// completion). max_inflight = 1 (the default) degenerates to the classic
// stop-and-wait client.
//
// Wire format (version 2):
//   request:  [u8 version][u8 kind][u64 call_id][u16 method][u8 priority]
//             [u64 deadline][u64 trace_id][u64 parent_span][u64 sent_at]
//             [payload...]
//   response: [u8 version][u8 kind][u64 call_id][u16 method-or-code]
//             [payload...]
//
// Every header field is ALWAYS present — zero/default when unused. This is
// load-bearing for determinism: frame size feeds the ring slot count and
// therefore simulated timing, so tracing on/off, deadlines, and priorities
// must not change the bytes-on-wire length (only field values, which the
// timing model never reads). `sent_at` lets the receiver materialize the
// channel-flight span retroactively AND measure exact queueing delay for
// admission control — both hosts share the one sim clock. `deadline`
// (absolute, 0 = none) propagates the originating op's budget so every hop
// can shed already-dead work; `priority` separates control-plane probes
// and leases from data-plane doorbells so the former never starve.
//
// A frame whose version byte differs is rejected with a typed error
// (request side: counted + dropped, we cannot parse a call_id to reply to;
// response side: kInvalidArgument to the caller), never misparsed.
#ifndef SRC_MSG_RPC_H_
#define SRC_MSG_RPC_H_

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/msg/backpressure.h"
#include "src/msg/channel.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/sim/poll.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace cxlpool::msg {

inline constexpr uint8_t kRpcWireVersion = 2;
inline constexpr uint8_t kRpcRequest = 0;
inline constexpr uint8_t kRpcResponse = 1;
inline constexpr uint8_t kRpcErrorResponse = 2;

// Sentinel for RpcClient::Call's op_deadline: stamp the call's own wait
// deadline into the wire (single-attempt callers, where attempt == op).
inline constexpr Nanos kInheritCallDeadline = -1;

class RpcClient {
 public:
  struct Options {
    // Bound on calls queued behind the in-flight window (per client —
    // i.e. per (client host, device) forwarding path). 0 = unbounded. A
    // data-priority call arriving at the bound is refused with
    // kOverloaded; queued work is untouched. Control-priority calls are
    // exempt: they jump the queue and are never counted against the bound.
    uint32_t max_pending = 0;
    // Calls allowed on the wire at once. 1 (default) = stop-and-wait:
    // exactly the pre-pipelining client, every existing ordering holds.
    // Larger values pipeline: the channel holds several requests while
    // earlier responses are still in flight, hiding the round-trip under
    // the server's service time. Control priority jumps the wait queue
    // but still occupies an inflight slot — a control probe admitted
    // past the data backlog is still one wire-visible call.
    uint32_t max_inflight = 1;
  };

  // Counts the rpc_client.* series declared with its members under the
  // endpoint host's scope plus `labels` (an owner with several clients on
  // one host tells them apart there). A call with a traced `ctx` records
  // an rpc.enqueue span with the endpoint host's tracer.
  explicit RpcClient(Endpoint& endpoint) : RpcClient(endpoint, Options()) {}
  RpcClient(Endpoint& endpoint, Options options, obs::Labels labels = {})
      : endpoint_(endpoint),
        options_(options),
        metrics_(endpoint.host().metrics().With(std::move(labels))) {}

  // Issues a call and waits for the response (until `deadline`, absolute).
  // Calls from concurrent coroutines share the channel: up to
  // max_inflight requests ride the wire at once and responses are
  // demultiplexed by call_id (leader/follower — the oldest waiting call
  // pumps the receive ring for everyone, so there is no detached reader
  // task to supervise). Control-priority calls jump ahead of queued
  // data-priority calls so probes and leases never wait out a data
  // storm. `ctx` is the caller's trace context; it rides the request
  // header so the server's spans attach to the same trace.
  //
  // `op_deadline` is what gets STAMPED INTO THE WIRE for downstream hops
  // to shed against: the originating operation's total budget, not this
  // attempt's wait bound. kInheritCallDeadline (default) stamps `deadline`
  // — right for single-attempt callers, where the two coincide. Retried
  // callers (RetryPolicy) pass their op budget explicitly: a timed-out
  // ATTEMPT's work is not dead — the home agent still applies it and the
  // retry dedups — so the attempt deadline must never reach the wire.
  sim::Task<Result<std::vector<std::byte>>> Call(uint16_t method,
                                                 std::span<const std::byte> request,
                                                 Nanos deadline,
                                                 obs::TraceContext ctx = {},
                                                 uint8_t priority = kPriorityData,
                                                 Nanos op_deadline = kInheritCallDeadline);

  Endpoint& endpoint() { return endpoint_; }
  // Calls currently waiting behind the in-flight window.
  size_t pending() const { return turn_queue_.size(); }
  // Calls currently holding an inflight slot (sending or awaiting reply).
  size_t inflight() const { return inflight_; }

 private:
  struct TurnWaiter {
    explicit TurnWaiter(sim::EventLoop& loop) : event(loop) {}
    sim::Event event;
    uint8_t priority = kPriorityData;
  };

  // A call that has been sent and is awaiting its response. Keyed by
  // call_id in pending_calls_; call_ids are monotone, so map order is
  // issue order and begin() is the oldest in-flight call.
  struct PendingCall {
    explicit PendingCall(sim::EventLoop& loop) : event(loop) {}
    sim::Event event;
    Nanos deadline = 0;  // this call's response-wait bound (0 = none)
    Status status;
    std::vector<std::byte> payload;
    bool done = false;
  };

  // Inflight-window admission with priority: returns kOverloaded without
  // a slot when the pending bound rejects this call; otherwise returns OK
  // holding one inflight slot (release with ReleaseTurn).
  sim::Task<Status> AcquireTurn(uint8_t priority);
  void ReleaseTurn();
  size_t DataWaiters() const;

  // One receive round: waits for a frame (bounded by the earliest pending
  // deadline) and completes the matching call — or sweeps expired /
  // fails all on channel death. Exactly one call runs this at a time
  // (reader_active_).
  sim::Task<> PumpResponses();
  void Complete(PendingCall* call, Status status);
  void FailOldest(Status status);
  void WakeNextReader();

  Endpoint& endpoint_;
  Options options_;
  uint64_t next_call_id_ = 1;
  uint32_t inflight_ = 0;
  std::deque<TurnWaiter*> turn_queue_;
  std::map<uint64_t, PendingCall*> pending_calls_;
  bool reader_active_ = false;
  obs::Scope metrics_;
  // Refusals at the max_pending bound.
  obs::Counter* rejected_ = metrics_.GetCounter("rpc_client.rejected");
  // Deadline passed while waiting to send; timed out awaiting a response.
  obs::Counter* expired_in_queue_ = metrics_.GetCounter("rpc_client.expired_in_queue");
  obs::Counter* expired_in_flight_ = metrics_.GetCounter("rpc_client.expired_in_flight");
  // Responses matching no pending call.
  obs::Counter* stale_responses_ = metrics_.GetCounter("rpc_client.stale_responses");
};

// Everything a handler may want to know about the request beyond its
// payload: the caller's trace context (zero when untraced), the absolute
// deadline it propagated (0 = none), and its priority class. Handlers that
// do slow work re-check `deadline` right before the expensive step (e.g.
// the home agent before touching a device BAR).
struct ServerContext {
  obs::TraceContext trace;
  Nanos deadline = 0;
  uint8_t priority = kPriorityData;
};

class RpcServer {
 public:
  // Handler returns the response payload or an error status (reported to
  // the caller as kRpcErrorResponse carrying the code).
  using Handler = std::function<sim::Task<Result<std::vector<std::byte>>>(
      uint16_t method, std::span<const std::byte> request)>;
  // Context-aware handler: additionally receives the request's trace
  // context, propagated deadline, and priority.
  using ContextHandler = std::function<sim::Task<Result<std::vector<std::byte>>>(
      uint16_t method, std::span<const std::byte> request,
      const ServerContext& ctx)>;

  // Counts under the endpoint host's scope, as <prefix>serve_aborts (Serve
  // exited: channel death or a failed reply), <prefix>restarts
  // (ServeSupervised re-entered Serve), <prefix>expired (refused: deadline
  // already passed on dequeue), <prefix>shed (refused: CoDel shed or
  // inflight bound) and <prefix>bad_version (dropped: wire version
  // mismatch). An owner that accounts for its servers under its own name
  // passes its prefix: the home agent's servers count as agent.rpc_*.
  //
  // A traced request gets server-side spans from the endpoint host's
  // tracer: rpc.flight (recorded retroactively from the request's
  // sent_at), rpc.serve around the handler, rpc.reply around the response
  // send, or rpc.shed / rpc.expired when admission control or a deadline
  // check refuses it. Serve aborts and dropped frames leave an "rpc" note
  // in that host's flight ring (the counters count them either way).
  RpcServer(Endpoint& endpoint, Handler handler,
            const std::string& prefix = "rpc_server.")
      : RpcServer(
            endpoint,
            ContextHandler([h = std::move(handler)](uint16_t method,
                                                    std::span<const std::byte> request,
                                                    const ServerContext&) {
              return h(method, request);
            }),
            prefix) {}
  RpcServer(Endpoint& endpoint, ContextHandler handler,
            const std::string& prefix = "rpc_server.");

  // Shares a per-home-agent admission controller across this server's
  // serve loop: expired requests are refused with kDeadlineExceeded and
  // CoDel-shed / inflight-rejected ones with kOverloaded, all BEFORE the
  // handler (and therefore before any device BAR access). Null (default)
  // disables shedding; expired requests are still refused.
  void BindAdmission(AdmissionController* admission) { admission_ = admission; }

  // Serve loop; runs until `stop` fires. Spawn as a detached task. Exits
  // (and counts a serve abort) when the channel path dies — e.g. the
  // backing MHD failed or this host crashed. Use ServeSupervised when the
  // server must come back after transient faults.
  sim::Task<> Serve(sim::StopToken& stop);

  // Restart supervisor: re-enters Serve after every abort, backing off
  // exponentially (deterministic, no jitter: one restart probe per backoff
  // is harmless) while the channel stays dead, until `stop` fires.
  sim::Task<> ServeSupervised(sim::StopToken& stop,
                              Nanos initial_backoff = 10 * kMicrosecond,
                              Nanos max_backoff = 200 * kMicrosecond);

  // Requests answered by the handler. ServeSupervised resets its restart
  // backoff on progress here, so it is state, not a metric.
  uint64_t calls_served() const { return calls_served_; }

 private:
  Endpoint& endpoint_;
  ContextHandler handler_;
  uint64_t calls_served_ = 0;
  AdmissionController* admission_ = nullptr;
  obs::Counter* serve_aborts_;
  obs::Counter* restarts_;
  obs::Counter* expired_;
  obs::Counter* shed_;
  obs::Counter* bad_version_;
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_RPC_H_
