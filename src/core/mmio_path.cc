#include "src/core/mmio_path.h"

#include "src/msg/wire.h"

namespace cxlpool::core {

namespace mmio_wire {

std::vector<std::byte> EncodeWrite(PcieDeviceId device, uint64_t epoch,
                                   uint64_t client_id, uint64_t seq,
                                   uint64_t reg, uint64_t value) {
  std::vector<std::byte> out;
  msg::wire::Writer w(&out);
  w.U32(device.value());
  w.U64(epoch);
  w.U64(client_id);
  w.U64(seq);
  w.U64(reg);
  w.U64(value);
  return out;
}

std::vector<std::byte> EncodeRead(PcieDeviceId device, uint64_t epoch,
                                  uint64_t client_id, uint64_t seq,
                                  uint64_t reg) {
  std::vector<std::byte> out;
  msg::wire::Writer w(&out);
  w.U32(device.value());
  w.U64(epoch);
  w.U64(client_id);
  w.U64(seq);
  w.U64(reg);
  return out;
}

Result<Decoded> Decode(std::span<const std::byte> payload, bool is_write) {
  size_t expect = is_write ? 44 : 36;
  if (payload.size() < expect) {
    return InvalidArgument("short MMIO frame");
  }
  msg::wire::Reader r(payload);
  Decoded d;
  d.device = PcieDeviceId(r.U32());
  d.epoch = r.U64();
  d.client_id = r.U64();
  d.seq = r.U64();
  d.reg = r.U64();
  if (is_write) {
    d.value = r.U64();
  }
  return d;
}

}  // namespace mmio_wire

obs::Span ForwardedMmioPath::StartOpSpan(const char* name,
                                         obs::TraceContext parent) {
  cxl::HostAdapter& host = client_->endpoint().host();
  obs::Tracer* tracer = host.tracer();
  if (tracer == nullptr) {
    return obs::Span();
  }
  if (parent.traced()) {
    return tracer->StartSpan(name, host.id().value(), parent, loop_.now());
  }
  return tracer->StartTrace(name, host.id().value(), loop_.now());
}

sim::Task<Status> ForwardedMmioPath::Write(uint64_t reg, uint64_t value,
                                           obs::TraceContext parent,
                                           Nanos deadline) {
  // The seq is fixed BEFORE the first attempt: every retry re-sends the
  // same frame, so the home agent can recognize a duplicate of an already-
  // applied write and acknowledge without ringing the doorbell again.
  uint64_t seq = ++next_seq_;
  obs::Span op = StartOpSpan("mmio.write", parent);
  // Pin loop and breaker into this frame: rebind/failover may destroy this
  // path while the call is in flight, so no member access after the
  // co_await (the breaker is orchestrator-owned and outlives the path).
  sim::EventLoop& loop = loop_;
  msg::CircuitBreaker& breaker = breaker_;
  if (!breaker.Allow(loop.now())) {
    // Open breaker: fail fast without loading the wire. kOverloaded (not
    // retryable) — the device is being given room to recover.
    op.End(loop.now());
    co_return Overloaded("circuit breaker open for device");
  }
  auto request =
      mmio_wire::EncodeWrite(device_, epoch_, client_id_, seq, reg, value);
  auto resp = co_await retry_.Call(*client_, kMethodMmioWrite, request,
                                   timeout_, loop, op.context(), deadline,
                                   msg::kPriorityData);
  op.End(loop.now());
  // Only transport-level failure inside a live budget trips the breaker:
  // an explicit kOverloaded push-back means the peer is alive, and an op
  // that died of its OWN deadline (budget elapsed — queue wait, shed
  // downstream) says nothing about the device. Counting budget expiry
  // would open breakers under pure overload and amputate capacity
  // exactly when demand peaks.
  bool budget_expired = deadline > 0 && loop.now() >= deadline;
  if (resp.ok()) {
    breaker.RecordSuccess(loop.now());
  } else if (msg::CircuitBreaker::IsBreakerFailure(resp.status()) &&
             !budget_expired) {
    breaker.RecordFailure(loop.now());
  }
  if (!resp.ok()) {
    co_return resp.status();
  }
  co_return OkStatus();
}

sim::Task<Result<uint64_t>> ForwardedMmioPath::Read(uint64_t reg,
                                                    obs::TraceContext parent,
                                                    Nanos deadline) {
  // Reads are idempotent; they carry a seq for wire uniformity but the
  // agent never dedups them (a retried read should observe fresh state).
  uint64_t seq = ++next_seq_;
  obs::Span op = StartOpSpan("mmio.read", parent);
  // Same frame-pinning as Write: `this` may die during the await.
  sim::EventLoop& loop = loop_;
  msg::CircuitBreaker& breaker = breaker_;
  if (!breaker.Allow(loop.now())) {
    op.End(loop.now());
    co_return Overloaded("circuit breaker open for device");
  }
  auto request = mmio_wire::EncodeRead(device_, epoch_, client_id_, seq, reg);
  auto resp = co_await retry_.Call(*client_, kMethodMmioRead, request, timeout_,
                                   loop, op.context(), deadline,
                                   msg::kPriorityData);
  op.End(loop.now());
  // Same rule as Write: budget expiry never blames the device.
  bool budget_expired = deadline > 0 && loop.now() >= deadline;
  if (resp.ok()) {
    breaker.RecordSuccess(loop.now());
  } else if (msg::CircuitBreaker::IsBreakerFailure(resp.status()) &&
             !budget_expired) {
    breaker.RecordFailure(loop.now());
  }
  if (!resp.ok()) {
    co_return resp.status();
  }
  if (resp->size() < 8) {
    co_return Internal("short MMIO read response");
  }
  co_return msg::wire::GetU64(resp->data());
}

}  // namespace cxlpool::core
