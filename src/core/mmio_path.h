// MmioPath: how a host reaches a PCIe device's registers.
//
// A host can only MMIO devices behind its own root complex. For a pooled
// device on another host, the operation is forwarded over the CXL
// shared-memory channel to the owning host's agent, which performs the
// access locally (paper §4.1 "Event signaling and host-to-host
// communications"). The driver layer is identical either way — only the
// path differs, which is what makes device pooling transparent.
#ifndef SRC_CORE_MMIO_PATH_H_
#define SRC_CORE_MMIO_PATH_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/msg/retry.h"
#include "src/msg/rpc.h"
#include "src/obs/trace.h"
#include "src/pcie/device.h"
#include "src/sim/task.h"

namespace cxlpool::core {

// RPC methods served by the owning host's agent.
inline constexpr uint16_t kMethodMmioWrite = 1;
inline constexpr uint16_t kMethodMmioRead = 2;

// `parent` (optional, zero = untraced) attaches the operation to an
// existing trace; a traced ForwardedMmioPath also mints a root when the
// caller passes none, so every forwarded op is traceable end to end.
// `deadline` (optional, absolute, 0 = none) is the operation's total
// budget, fixed at op origin: forwarded paths stamp it into the RPC wire
// header so every downstream hop — client queue, home-agent dequeue, the
// pre-BAR check — can shed the op the moment it is dead instead of doing
// dead work. Retries never extend it.
class MmioPath {
 public:
  virtual ~MmioPath() = default;
  virtual sim::Task<Status> Write(uint64_t reg, uint64_t value,
                                  obs::TraceContext parent = {},
                                  Nanos deadline = 0) = 0;
  virtual sim::Task<Result<uint64_t>> Read(uint64_t reg,
                                           obs::TraceContext parent = {},
                                           Nanos deadline = 0) = 0;
  // True when operations traverse the forwarding channel (diagnostics and
  // the E8 ablation).
  virtual bool is_remote() const = 0;
};

// Direct path: the device hangs off this host's root complex.
class LocalMmioPath : public MmioPath {
 public:
  explicit LocalMmioPath(pcie::PcieDevice* device) : device_(device) {}

  sim::Task<Status> Write(uint64_t reg, uint64_t value,
                          obs::TraceContext parent = {},
                          Nanos deadline = 0) override {
    (void)parent;    // local BARs need no cross-host stitching
    (void)deadline;  // a local BAR access cannot queue; nothing to shed
    return device_->MmioWrite(reg, value);
  }
  sim::Task<Result<uint64_t>> Read(uint64_t reg,
                                   obs::TraceContext parent = {},
                                   Nanos deadline = 0) override {
    (void)parent;
    (void)deadline;
    return device_->MmioRead(reg);
  }
  bool is_remote() const override { return false; }

 private:
  pcie::PcieDevice* device_;
};

// Forwarded path: ops travel over a shared-memory RPC channel to the agent
// on the device's home host.
//
// Every forwarded frame carries the lease epoch the path was built under.
// The orchestrator bumps a device's epoch whenever it migrates leases off
// it, so a stale path kept across a migration gets kAborted from the home
// agent instead of touching a device it no longer leases.
//
// Exactly-once: every frame also carries (client_id, seq). A timed-out
// attempt may already sit in the home agent's request ring — the agent
// WILL apply it — so the path retries through msg::RetryPolicy with the
// SAME seq, and the agent's per-(client, device) dedup window acknowledges
// the duplicate without re-applying the side effect (a doorbell rung twice
// is a protocol corruption, not a harmless hiccup). The orchestrator gives
// every path a unique client_id.
class ForwardedMmioPath : public MmioPath {
 public:
  // `client` must outlive the path. `device` identifies the target at the
  // remote agent. `epoch` is the lease epoch this path is valid for.
  // `timeout` bounds the first attempt of each forwarded operation;
  // `retry` governs further attempts (escalate timeout_multiplier > 1 to
  // outwait slow-but-alive peers). `client_id` keys the home agent's dedup
  // window. `breaker` is the device's circuit breaker, shared by every path
  // to it and owned by the orchestrator (it must outlive the path): ops
  // fail fast with kOverloaded while it is open, and every final outcome
  // feeds it.
  // The retry policy counts retry.* under the client host's scope plus
  // {"device": device}. Ops trace mmio.write / mmio.read spans with the
  // client host's tracer, labeled with that host.
  ForwardedMmioPath(std::shared_ptr<msg::RpcClient> client, PcieDeviceId device,
                    uint64_t epoch, Nanos timeout, sim::EventLoop& loop,
                    uint64_t client_id, msg::RetryPolicy::Options retry,
                    msg::CircuitBreaker& breaker)
      : client_(std::move(client)),
        device_(device),
        epoch_(epoch),
        timeout_(timeout),
        loop_(loop),
        client_id_(client_id),
        retry_(client_->endpoint().host().metrics().With(
                   {{"device", std::to_string(device.value())}}),
               retry),
        breaker_(breaker) {}

  sim::Task<Status> Write(uint64_t reg, uint64_t value,
                          obs::TraceContext parent = {},
                          Nanos deadline = 0) override;
  sim::Task<Result<uint64_t>> Read(uint64_t reg,
                                   obs::TraceContext parent = {},
                                   Nanos deadline = 0) override;
  bool is_remote() const override { return true; }
  uint64_t epoch() const { return epoch_; }
  uint64_t client_id() const { return client_id_; }
  // The underlying RPC client (benches drive control-priority probes over
  // the same channel as the data storm to prove they never starve).
  msg::RpcClient& rpc_client() { return *client_; }

 private:
  // Root span when untraced callers hit a traced path; child span when the
  // caller already carries a context (e.g. a queue-pair submit).
  obs::Span StartOpSpan(const char* name, obs::TraceContext parent);

  std::shared_ptr<msg::RpcClient> client_;
  PcieDeviceId device_;
  uint64_t epoch_;
  Nanos timeout_;
  sim::EventLoop& loop_;
  uint64_t client_id_;
  uint64_t next_seq_ = 0;  // assigned once per op; identical across retries
  msg::RetryPolicy retry_;
  msg::CircuitBreaker& breaker_;
};

// Encodes/serves the forwarded-MMIO wire format; used by ForwardedMmioPath
// and by the agent-side handler.
namespace mmio_wire {
std::vector<std::byte> EncodeWrite(PcieDeviceId device, uint64_t epoch,
                                   uint64_t client_id, uint64_t seq,
                                   uint64_t reg, uint64_t value);
std::vector<std::byte> EncodeRead(PcieDeviceId device, uint64_t epoch,
                                  uint64_t client_id, uint64_t seq,
                                  uint64_t reg);
struct Decoded {
  PcieDeviceId device;
  uint64_t epoch = 0;
  uint64_t client_id = 0;  // keys the home agent's write dedup window
  uint64_t seq = 0;        // per-client monotonic op number
  uint64_t reg = 0;
  uint64_t value = 0;  // writes only
};
Result<Decoded> Decode(std::span<const std::byte> payload, bool is_write);
}  // namespace mmio_wire

}  // namespace cxlpool::core

#endif  // SRC_CORE_MMIO_PATH_H_
