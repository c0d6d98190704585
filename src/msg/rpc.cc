#include "src/msg/rpc.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/msg/wire.h"

namespace cxlpool::msg {

namespace {
// Responses carry [version][kind][call_id][method]; requests additionally
// carry priority, deadline, and the trace triple (trace_id, parent_span,
// sent_at) — every field always present, zero/default when unused, so
// frame length is invariant to tracing state, deadlines, and priorities.
constexpr size_t kRespHeaderSize = 1 + 1 + 8 + 2;
constexpr size_t kReqHeaderSize = kRespHeaderSize + 1 + 8 + 8 + 8 + 8;
}  // namespace

size_t RpcClient::DataWaiters() const {
  size_t n = 0;
  for (const TurnWaiter* w : turn_queue_) {
    if (w->priority != kPriorityControl) {
      ++n;
    }
  }
  return n;
}

sim::Task<Status> RpcClient::AcquireTurn(uint8_t priority) {
  uint32_t limit = std::max<uint32_t>(1, options_.max_inflight);
  // Fast path requires an empty queue, not just a free slot: a freed slot
  // always goes to the queue head first, so nobody overtakes. Invariant:
  // a non-empty queue implies inflight_ == limit.
  if (inflight_ < limit && turn_queue_.empty()) {
    ++inflight_;
    co_return OkStatus();
  }
  if (priority != kPriorityControl && options_.max_pending > 0 &&
      DataWaiters() >= options_.max_pending) {
    rejected_->Inc();
    co_return Overloaded("client send queue full (reject-new)");
  }
  TurnWaiter waiter(endpoint_.loop());
  waiter.priority = priority;
  if (priority == kPriorityControl) {
    // Ahead of every data waiter, behind earlier control waiters: control
    // stays FIFO among itself but never queues behind a data storm.
    auto pos = std::find_if(
        turn_queue_.begin(), turn_queue_.end(),
        [](const TurnWaiter* w) { return w->priority != kPriorityControl; });
    turn_queue_.insert(pos, &waiter);
  } else {
    turn_queue_.push_back(&waiter);
  }
  co_await waiter.event.Wait();
  co_return OkStatus();  // ReleaseTurn handed us a slot; inflight_ unchanged
}

void RpcClient::ReleaseTurn() {
  if (turn_queue_.empty()) {
    --inflight_;
    return;
  }
  TurnWaiter* next = turn_queue_.front();
  turn_queue_.pop_front();
  next->event.Set();  // slot passes directly; inflight_ count unchanged
}

namespace {
// Releases the client turn on scope exit (co_return included).
class TurnGuard {
 public:
  using Release = void (RpcClient::*)();
  TurnGuard(RpcClient* client, Release release)
      : client_(client), release_(release) {}
  ~TurnGuard() { (client_->*release_)(); }
  TurnGuard(const TurnGuard&) = delete;
  TurnGuard& operator=(const TurnGuard&) = delete;

 private:
  RpcClient* client_;
  Release release_;
};
}  // namespace

sim::Task<Result<std::vector<std::byte>>> RpcClient::Call(
    uint16_t method, std::span<const std::byte> request, Nanos deadline,
    obs::TraceContext ctx, uint8_t priority, Nanos op_deadline) {
  if (op_deadline == kInheritCallDeadline) {
    op_deadline = deadline;
  }
  CO_RETURN_IF_ERROR(co_await AcquireTurn(priority));
  TurnGuard guard(this, &RpcClient::ReleaseTurn);
  sim::EventLoop& loop = endpoint_.loop();
  // Waiting out the queue may have consumed the whole budget; sending a
  // dead request just loads the ring with work every hop will shed anyway.
  if (deadline > 0 && loop.now() >= deadline) {
    expired_in_queue_->Inc();
    co_return DeadlineExceeded("deadline expired waiting in client queue");
  }
  uint64_t id = next_call_id_++;
  uint32_t host = endpoint_.host().id().value();

  Nanos sent_at = loop.now();
  std::vector<std::byte> frame;
  frame.reserve(kReqHeaderSize + request.size());
  wire::Writer w(&frame);
  w.U8(kRpcWireVersion);
  w.U8(kRpcRequest);
  w.U64(id);
  w.U16(method);
  w.U8(priority);
  w.U64(static_cast<uint64_t>(op_deadline));
  w.U64(ctx.trace_id);
  w.U64(ctx.span_id);
  w.U64(static_cast<uint64_t>(sent_at));
  w.Bytes(request);

  obs::Span enqueue =
      obs::MaybeStartSpan(endpoint_.host().tracer(), "rpc.enqueue", host, ctx, sent_at);
  Status st = co_await endpoint_.Send(frame, priority);
  enqueue.End(loop.now());
  if (!st.ok()) {
    co_return st;
  }

  PendingCall call(loop);
  call.deadline = deadline;
  pending_calls_.emplace(id, &call);
  // Response demux, leader/follower: whichever pending call finds no
  // active reader pumps the receive ring for everyone. A pumping round
  // that completes a FOLLOWER wakes it and the leader keeps pumping; a
  // leader whose own call completes hands the pump to the oldest
  // remaining call on the way out. Known slack: a call staged while the
  // leader is mid-Recv against a later sibling deadline observes its own
  // timeout only when that round returns (the bound is recomputed every
  // round, so lateness is capped at one Recv).
  while (!call.done) {
    if (reader_active_) {
      co_await call.event.Wait();
      call.event.Reset();
      continue;
    }
    reader_active_ = true;
    co_await PumpResponses();
    reader_active_ = false;
  }
  WakeNextReader();
  if (!call.status.ok()) {
    co_return std::move(call.status);
  }
  co_return std::move(call.payload);
}

void RpcClient::Complete(PendingCall* call, Status status) {
  call->status = std::move(status);
  call->done = true;
  call->event.Set();
}

void RpcClient::FailOldest(Status status) {
  if (pending_calls_.empty()) {
    return;
  }
  PendingCall* oldest = pending_calls_.begin()->second;
  pending_calls_.erase(pending_calls_.begin());
  Complete(oldest, std::move(status));
}

void RpcClient::WakeNextReader() {
  if (reader_active_ || pending_calls_.empty()) {
    return;
  }
  pending_calls_.begin()->second->event.Set();
}

sim::Task<> RpcClient::PumpResponses() {
  sim::EventLoop& loop = endpoint_.loop();
  // Bound the wait by the earliest pending deadline so an expiring call
  // is failed promptly even while later-deadline siblings keep arriving.
  // All-unbounded pendings poll in slices (the stop-and-wait client could
  // block forever here too, but a slice keeps the sweep responsive once
  // bounded and unbounded calls share the wire).
  Nanos wait_deadline = 0;
  for (const auto& [pending_id, pending] : pending_calls_) {
    if (pending->deadline > 0) {
      wait_deadline = wait_deadline == 0
                          ? pending->deadline
                          : std::min(wait_deadline, pending->deadline);
    }
  }
  if (wait_deadline == 0) {
    wait_deadline = loop.now() + 50 * kMicrosecond;
  }
  std::vector<std::byte> resp;
  Status st = co_await endpoint_.Recv(&resp, wait_deadline);
  if (!st.ok()) {
    if (st.code() == StatusCode::kDeadlineExceeded) {
      // Sweep every call whose own wait bound has passed; the rest were
      // only cut short by a sibling's earlier deadline (or the slice).
      Nanos now = loop.now();
      for (auto it = pending_calls_.begin(); it != pending_calls_.end();) {
        PendingCall* pending = it->second;
        if (pending->deadline > 0 && now >= pending->deadline) {
          it = pending_calls_.erase(it);
          expired_in_flight_->Inc();
          Complete(pending, st);
        } else {
          ++it;
        }
      }
      co_return;
    }
    // Channel death: every in-flight call fails the same way.
    std::map<uint64_t, PendingCall*> dead;
    dead.swap(pending_calls_);
    for (auto& [dead_id, pending] : dead) {
      Complete(pending, st);
    }
    co_return;
  }
  if (resp.size() < kRespHeaderSize) {
    FailOldest(Internal("short RPC frame"));
    co_return;
  }
  wire::Reader r(resp);
  uint8_t version = r.U8();
  if (version != kRpcWireVersion) {
    FailOldest(InvalidArgument("unsupported RPC wire version"));
    co_return;
  }
  uint8_t kind = r.U8();
  uint64_t got_id = r.U64();
  uint16_t code_or_method = r.U16();
  auto it = pending_calls_.find(got_id);
  if (it == pending_calls_.end()) {
    // Response to a call that already expired or was abandoned.
    stale_responses_->Inc();
    co_return;
  }
  PendingCall* pending = it->second;
  pending_calls_.erase(it);
  if (kind == kRpcErrorResponse) {
    Complete(pending, Status(static_cast<StatusCode>(code_or_method),
                             "remote handler failed"));
  } else if (kind != kRpcResponse) {
    Complete(pending, Internal("unexpected RPC frame kind"));
  } else {
    auto rest = r.Rest();
    pending->payload.assign(rest.begin(), rest.end());
    Complete(pending, OkStatus());
  }
}

RpcServer::RpcServer(Endpoint& endpoint, ContextHandler handler,
                     const std::string& prefix)
    : endpoint_(endpoint), handler_(std::move(handler)) {
  const obs::Scope& scope = endpoint.host().metrics();
  serve_aborts_ = scope.GetCounter(prefix + "serve_aborts");
  restarts_ = scope.GetCounter(prefix + "restarts");
  expired_ = scope.GetCounter(prefix + "expired");
  shed_ = scope.GetCounter(prefix + "shed");
  bad_version_ = scope.GetCounter(prefix + "bad_version");
}

namespace {
// Serves guard: balances AdmissionController::TryEnterServe on every exit.
class ServeSlot {
 public:
  explicit ServeSlot(AdmissionController* admission) : admission_(admission) {}
  ~ServeSlot() {
    if (admission_ != nullptr) {
      admission_->ExitServe();
    }
  }
  ServeSlot(const ServeSlot&) = delete;
  ServeSlot& operator=(const ServeSlot&) = delete;

 private:
  AdmissionController* admission_;
};
}  // namespace

sim::Task<> RpcServer::Serve(sim::StopToken& stop) {
  sim::EventLoop& loop = endpoint_.loop();
  uint32_t host = endpoint_.host().id().value();
  obs::Tracer* tracer = endpoint_.host().tracer();
  while (!stop.stopped()) {
    std::vector<std::byte> frame;
    // Slice the wait so the stop flag is observed promptly.
    Status st = co_await endpoint_.Recv(&frame, loop.now() + 50 * kMicrosecond);
    if (!st.ok()) {
      if (st.code() == StatusCode::kDeadlineExceeded) {
        continue;
      }
      // Channel path died (MHD/link down, host crashed). A silent exit
      // here is an invisible dead control plane — count it and leave a
      // flight note so the outage shows up even without ServeSupervised.
      serve_aborts_->Inc();
      endpoint_.host().FlightNote("rpc", "serve loop aborted on channel death: %s",
                                  st.ToString().c_str());
      co_return;
    }
    if (frame.size() < kReqHeaderSize) {
      // Version check before the length check would misattribute truncated
      // new-format frames; a frame long enough to carry a version byte but
      // with the wrong one is the old format (or garbage) — typed reject.
      if (!frame.empty() &&
          static_cast<uint8_t>(frame[0]) != kRpcWireVersion) {
        bad_version_->Inc();
      }
      continue;
    }
    wire::Reader r(frame);
    uint8_t version = r.U8();
    if (version != kRpcWireVersion) {
      // Old-format frame: there is no call_id we can trust to reply to, so
      // count and drop. The peer's call times out rather than misparses.
      bad_version_->Inc();
      endpoint_.host().FlightNote("rpc", "frame with unsupported wire version %d dropped",
                                  static_cast<int>(version));
      continue;
    }
    uint8_t kind = r.U8();
    uint64_t id = r.U64();
    uint16_t method = r.U16();
    ServerContext sctx;
    sctx.priority = r.U8();
    sctx.deadline = static_cast<Nanos>(r.U64());
    sctx.trace.trace_id = r.U64();
    sctx.trace.span_id = r.U64();
    Nanos sent_at = static_cast<Nanos>(r.U64());
    if (kind != kRpcRequest) {
      continue;
    }
    obs::TraceContext wire_ctx = sctx.trace;
    Nanos now = loop.now();
    Nanos sojourn = now - sent_at;

    // Refuse dead or sheddable work BEFORE the handler touches anything
    // expensive. The error reply is cheap (header-only) and tells the
    // caller exactly why: kDeadlineExceeded = your budget ran out in our
    // queue; kOverloaded = alive but saturated, back off.
    Status refuse = OkStatus();
    const char* refuse_span = nullptr;
    if (sctx.deadline > 0 && now >= sctx.deadline) {
      expired_->Inc();
      refuse = DeadlineExceeded("request expired before serve");
      refuse_span = "rpc.expired";
    } else if (admission_ != nullptr &&
               admission_->ShouldShed(sojourn, sctx.priority, now)) {
      shed_->Inc();
      refuse = Overloaded("shed by admission control");
      refuse_span = "rpc.shed";
    }
    bool entered = false;
    if (refuse.ok() && admission_ != nullptr &&
        sctx.priority != kPriorityControl) {
      // The inflight bound is a data-plane limit: control (probes, leases,
      // reports) must get through a saturated agent, or overload turns
      // into false wedge detections and dead heartbeats.
      entered = admission_->TryEnterServe();
      if (!entered) {
        shed_->Inc();
        refuse = Overloaded("home agent at max inflight");
        refuse_span = "rpc.shed";
      }
    }
    if (!refuse.ok()) {
      if (tracer != nullptr && wire_ctx.traced()) {
        // The whole story of this request is its queue wait; record it as
        // one retroactive span so sheds are visible in traces.
        tracer->RecordSpan(refuse_span, host, wire_ctx, sent_at, now);
      }
      std::vector<std::byte> resp;
      wire::Writer w(&resp);
      w.U8(kRpcWireVersion);
      w.U8(kRpcErrorResponse);
      w.U64(id);
      w.U16(static_cast<uint16_t>(refuse.code()));
      Status send_st = co_await endpoint_.Send(resp);
      if (!send_st.ok()) {
        serve_aborts_->Inc();
        endpoint_.host().FlightNote("rpc", "serve loop aborted on send failure: %s",
                                    send_st.ToString().c_str());
        co_return;
      }
      continue;
    }
    ServeSlot slot(entered ? admission_ : nullptr);

    // The flight span (sender's Send to our dequeue) is only knowable
    // here, after the fact — record it retroactively, then serve under it.
    obs::TraceContext serve_parent = wire_ctx;
    if (tracer != nullptr && wire_ctx.traced()) {
      serve_parent =
          tracer->RecordSpan("rpc.flight", host, wire_ctx, sent_at, loop.now());
    }
    obs::Span serve =
        obs::MaybeStartSpan(tracer, "rpc.serve", host, serve_parent, loop.now());
    sctx.trace = serve.context();
    Result<std::vector<std::byte>> result =
        co_await handler_(method, r.Rest(), sctx);
    serve.End(loop.now());
    std::vector<std::byte> resp;
    wire::Writer w(&resp);
    if (result.ok()) {
      w.U8(kRpcWireVersion);
      w.U8(kRpcResponse);
      w.U64(id);
      w.U16(method);
      w.Bytes(result.value());
    } else {
      w.U8(kRpcWireVersion);
      w.U8(kRpcErrorResponse);
      w.U64(id);
      w.U16(static_cast<uint16_t>(result.status().code()));
    }
    ++calls_served_;
    obs::Span reply =
        obs::MaybeStartSpan(tracer, "rpc.reply", host, serve_parent, loop.now());
    Status send_st = co_await endpoint_.Send(resp);
    reply.End(loop.now());
    if (!send_st.ok()) {
      serve_aborts_->Inc();
      endpoint_.host().FlightNote("rpc", "serve loop aborted on send failure: %s",
                                  send_st.ToString().c_str());
      co_return;
    }
  }
}

sim::Task<> RpcServer::ServeSupervised(sim::StopToken& stop,
                                       Nanos initial_backoff, Nanos max_backoff) {
  sim::PollBackoff backoff(initial_backoff, max_backoff);
  while (!stop.stopped()) {
    uint64_t served_before = calls_served_;
    co_await Serve(stop);
    if (stop.stopped()) {
      co_return;
    }
    if (calls_served_ > served_before) {
      backoff.Reset();  // the last incarnation made progress
    }
    restarts_->Inc();
    co_await sim::Delay(endpoint_.loop(), backoff.NextDelay());
  }
}

}  // namespace cxlpool::msg
