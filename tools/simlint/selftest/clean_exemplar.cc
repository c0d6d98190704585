// Clean counterparts to the repro files: the patterns the lint must NOT
// flag. Not part of the build; `python3 tools/simlint --self-test`
// asserts zero findings here (the file carries no simlint-expect
// annotations, so any finding is a false positive).
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cxl/host_adapter.h"
#include "src/msg/channel.h"
#include "src/msg/rpc.h"
#include "src/msg/wire.h"
#include "src/obs/trace.h"
#include "src/sim/task.h"

namespace cxlpool::repro {

class FixedDoorbellSender {
 public:
  FixedDoorbellSender(cxl::HostAdapter& host, uint64_t line_addr)
      : host_(host), addr_(line_addr) {}

  // The PR 1 fix: a coroutine frame owns `buf` until the task completes.
  sim::Task<Status> Ring(uint64_t value) {
    std::array<std::byte, 8> buf;
    msg::wire::PutU64(buf.data(), value);
    co_return co_await host_.StoreNt(addr_, buf);
  }

  // A parameter-only forwarder is safe without being a coroutine: the
  // caller owns `data` and keeps it alive while awaiting the task.
  sim::Task<Status> Publish(uint64_t addr, std::span<const std::byte> data) {
    return host_.StoreNt(addr, data);
  }

 private:
  cxl::HostAdapter& host_;
  uint64_t addr_;
};

// Results consumed every legitimate way.
inline sim::Task<Status> ConsumeProperly(cxl::HostAdapter& host,
                                         uint64_t addr) {
  CO_RETURN_IF_ERROR(co_await host.Flush(addr, 64));
  std::array<std::byte, 64> line;
  Status st = co_await host.ReadFresh(addr, line);
  if (!st.ok()) {
    co_return st;
  }
  (void)co_await host.Flush(addr, 64);  // tolerated failure, explicit
  co_return OkStatus();
}

// Supervised loops the lint must accept: a stop token threaded through
// directly, via a member, or via an accessor.
sim::Task<> WatchLoop(cxl::HostAdapter& host, sim::StopToken& stop);

inline void StartSupervisedWatcher(cxl::HostAdapter& host,
                                   sim::StopToken& stop) {
  sim::Spawn(WatchLoop(host, stop));
}

class Supervisor {
 public:
  sim::StopToken& stop_token() { return stop_; }
  void Start(cxl::HostAdapter& host) {
    sim::Spawn(WatchLoop(host, stop_token()));
  }

 private:
  sim::StopToken stop_;
};

// Span hygiene the lint must accept: End() on every exit path, or
// ownership explicitly moved to a new owner.
inline sim::Task<Status> TracedStoreClean(cxl::HostAdapter& host,
                                          obs::Tracer* tracer, uint64_t addr,
                                          std::span<const std::byte> data) {
  obs::Span op = obs::MaybeStartTrace(tracer, "store", host.id().value(),
                                      host.loop().now());
  Status st = co_await host.StoreNt(addr, data);
  if (!st.ok()) {
    op.End(host.loop().now());
    co_return st;
  }
  op.End(host.loop().now());
  co_return OkStatus();
}

inline obs::Span HandOffSpan(obs::Tracer& tracer, uint32_t host, Nanos now) {
  obs::Span op = tracer.StartTrace("op", host, now);
  return op;  // moved to the caller, who owns the End
}

// Budgeted awaits the missing-deadline rule must accept: an absolute
// deadline computed from now(), a deadline/timeout variable threaded
// through, and a sanctioned unbounded wait with an explicit waiver.
sim::Task<Status> RecvInto(msg::Endpoint& end, std::vector<std::byte>* frame,
                           Nanos deadline);

inline sim::Task<Status> BudgetedPoke(msg::RpcClient& client, sim::EventLoop& loop,
                                      std::vector<std::byte> request,
                                      Nanos op_deadline) {
  auto resp = co_await client.Call(msg::kMethodMmioWrite, request,
                                   loop.now() + 100 * kMicrosecond, {},
                                   msg::kPriorityData, op_deadline);
  co_return resp.status();
}

inline sim::Task<Status> BudgetedDrain(msg::Endpoint& end, Nanos deadline) {
  std::vector<std::byte> frame;
  CO_RETURN_IF_ERROR(co_await end.Recv(&frame, deadline));
  co_return co_await end.Recv(&frame);  // simlint: allow(missing-deadline)
}

inline sim::Task<Status> FinalDrain(msg::Endpoint& end) {
  std::vector<std::byte> frame;
  // Shutdown path: the sender is already quiesced, an unbounded wait is
  // the point. The waiver names the rule it overrides.
  co_return co_await end.Recv(&frame);  // simlint: allow(missing-deadline)
}

}  // namespace cxlpool::repro
