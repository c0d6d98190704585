// Pooling agent: one per host (paper §4.2). The agent owns the host's
// physically attached PCIe devices and provides three services over CXL
// shared-memory channels:
//   1. MMIO forwarding — executes register accesses on behalf of remote
//      hosts using pooled devices (the datapath's doorbell path).
//   2. Monitoring — probes local device health (e.g. NIC link status via
//      MMIO) and utilization, and reports to the orchestrator.
//   3. Control — executes orchestrator commands (migrations) by invoking
//      the host-side migration handler registered by the I/O stack.
#ifndef SRC_CORE_AGENT_H_
#define SRC_CORE_AGENT_H_

#include <functional>
#include <map>
#include <vector>

#include "src/core/mmio_path.h"
#include "src/msg/rpc.h"
#include "src/obs/registry.h"
#include "src/pcie/device.h"
#include "src/sim/poll.h"

namespace cxlpool::core {

enum class DeviceType : uint8_t {
  kNic = 1,
  kSsd = 2,
  kAccel = 3,
};

// RPC methods beyond the MMIO pair declared in mmio_path.h.
inline constexpr uint16_t kMethodReport = 3;     // agent -> orchestrator
inline constexpr uint16_t kMethodMigrate = 4;    // orchestrator -> agent
inline constexpr uint16_t kMethodEpoch = 5;      // orchestrator -> home agent
inline constexpr uint16_t kMethodPeerProbe = 6;  // agent -> agent liveness

// One device's status inside a report frame.
struct DeviceStatus {
  PcieDeviceId device;
  DeviceType type = DeviceType::kNic;
  bool healthy = true;
  double utilization = 0.0;
  // Cumulative gray-fault episodes the home agent detected on this device
  // (watchdog-triggered FLRs). The orchestrator folds these into its flap
  // accounting for quarantine decisions.
  uint32_t fault_episodes = 0;
};

namespace report_wire {
// peer_mask: bit h set = this reporter could reach host h recently (its
// peer probe round-tripped within the staleness bound). Hosts the agent
// does not probe keep their bit set — absence of evidence is never a
// vote against a peer. The orchestrator's quorum liveness counts cleared
// bits from fresh reporters as "unreachable" votes.
std::vector<std::byte> Encode(HostId reporter, uint64_t peer_mask,
                              std::span<const DeviceStatus> statuses);
struct Decoded {
  HostId reporter;
  uint64_t peer_mask = ~0ull;
  std::vector<DeviceStatus> statuses;
};
Result<Decoded> Decode(std::span<const std::byte> payload);
}  // namespace report_wire

namespace migrate_wire {
std::vector<std::byte> Encode(PcieDeviceId old_dev, PcieDeviceId new_dev,
                              HostId new_home);
struct Decoded {
  PcieDeviceId old_dev;
  PcieDeviceId new_dev;
  HostId new_home;
};
Result<Decoded> Decode(std::span<const std::byte> payload);
}  // namespace migrate_wire

// kMethodEpoch payload: the orchestrator pushes a device's current lease
// epoch to its home agent after migrating leases off it (and when a host
// re-registers after a crash).
namespace epoch_wire {
std::vector<std::byte> Encode(PcieDeviceId device, uint64_t epoch);
struct Decoded {
  PcieDeviceId device;
  uint64_t epoch = 0;
};
Result<Decoded> Decode(std::span<const std::byte> payload);
}  // namespace epoch_wire

class Agent {
 public:
  struct Config {
    Nanos monitor_interval = 20 * kMicrosecond;
    Nanos rpc_timeout = 500 * kMicrosecond;
    // Watchdog: consecutive MMIO probe deadline misses before the agent
    // declares the device wedged and issues an FLR-style Reset(). Probes
    // ride the monitor cadence, so detection latency is roughly
    // wedge_miss_threshold * (monitor_interval + wedge stall).
    int wedge_miss_threshold = 2;
    // Admission control for the forwarding serve loops: CoDel-style
    // shedding on sustained queueing delay plus a per-agent inflight
    // bound. Defaults shed data-plane ops only; control plane (probes,
    // leases) is never shed, which is what keeps the watchdog honest
    // under pure overload.
    msg::AdmissionController::Options admission;
    // Split-brain-safe lease clock (ISSUE 9). When > 0 and reporting has
    // started, the agent treats its lease authority as a TTL renewed ONLY
    // by a successful report round-trip (request delivered AND response
    // received — proof the orchestrator heard from us). Once the local
    // monotonic clock passes last_renewal + lease_ttl, every forwarded op
    // on a local device is refused with kAborted (self-fence) until a
    // report round-trips again. This is what lets a partitioned
    // orchestrator hand the device away after waiting lease_ttl + margin:
    // by then the old home agent has provably stopped applying. 0 = off
    // (standalone agents without a report loop are never fenced).
    Nanos lease_ttl = 0;
    // Peer-probe mesh cadence (quorum liveness): how often this agent
    // pings each peer it was wired to, and the per-probe timeout. A peer
    // whose last success is older than 2 * interval + timeout loses its
    // peer_mask bit.
    Nanos peer_probe_interval = 50 * kMicrosecond;
    Nanos peer_probe_timeout = 100 * kMicrosecond;
  };

  // Counts under the host's scope ({"host": id}): the agent.* series
  // declared with its members, agent.rpc_* for every serve loop it spawns
  // (agent.rpc_shed, agent.rpc_expired, ...; see RpcServer), and the
  // admission controller's series. Traces mmio.device_bar spans on
  // forwarded ops and notes anomalies (stale epoch, dedup, FLR) through
  // the host as well.
  Agent(cxl::HostAdapter& host, Config config)
      : host_(host), config_(config), admission_(host.metrics(), config.admission) {}
  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  HostId host_id() const { return host_.id(); }
  cxl::HostAdapter& host() { return host_; }

  // --- Local device registry ---
  using UtilProbe = std::function<double()>;
  // Health probe returns true while the device is serviceable; the default
  // checks PcieDevice::failed() only.
  using HealthProbe = std::function<bool()>;

  void RegisterDevice(pcie::PcieDevice* device, DeviceType type,
                      UtilProbe util_probe = nullptr,
                      HealthProbe health_probe = nullptr);
  pcie::PcieDevice* FindDevice(PcieDeviceId id);

  // --- Services (each spawns a detached task) ---
  // Serves forwarded MMIO for remote users of local devices.
  void ServeForwarding(msg::Endpoint& endpoint, sim::StopToken& stop);
  // Serves orchestrator control commands (migrations).
  void ServeControl(msg::Endpoint& endpoint, sim::StopToken& stop);
  // Monitors local devices and pushes reports to the orchestrator.
  void StartReporting(msg::Endpoint& to_orchestrator, sim::StopToken& stop);
  // Answers kMethodPeerProbe pings from a peer agent (quorum liveness).
  void ServePeerProbe(msg::Endpoint& endpoint, sim::StopToken& stop);
  // Pings `peer` over `endpoint` at peer_probe_interval; successes feed
  // the peer_mask bit this agent reports to the orchestrator.
  void StartPeerProbe(HostId peer, msg::Endpoint& endpoint,
                      sim::StopToken& stop);
  // Reachability bitmap over probed peers (bit h = host h reachable).
  uint64_t peer_mask();

  // Invoked (awaited) when the orchestrator migrates a device this host
  // uses. The I/O stack rebinds its virtual devices here.
  using MigrationHandler =
      std::function<sim::Task<>(PcieDeviceId old_dev, PcieDeviceId new_dev,
                                HostId new_home)>;
  void SetMigrationHandler(MigrationHandler handler) {
    migration_handler_ = std::move(handler);
  }

  // Chaos hook: every forwarded op stalls `delay` inside the handler
  // before its pre-BAR deadline re-check — a slow-draining home agent
  // (GC pause, noisy neighbor). 0 restores normal drain.
  void InjectSlowDrain(Nanos delay) { slow_drain_ = delay; }

  // The lease epoch this agent enforces for a local device (tests).
  uint64_t device_epoch(PcieDeviceId id) const;
  // Gray-fault episodes the watchdog logged against a local device (tests).
  uint32_t device_fault_episodes(PcieDeviceId id) const;
  // True while the lease TTL has lapsed without a report round-trip: all
  // forwarded ops are being refused (see Config::lease_ttl).
  bool self_fenced() const;

  // Dual-ownership oracle hook (src/analysis/lease_oracle.h): invoked at
  // the instant a forwarded write lands on a local device BAR, with the
  // epoch it was admitted under. Pure bookkeeping — must not touch the
  // sim clock or RNG.
  using ApplyHook = std::function<void(PcieDeviceId device, uint64_t epoch,
                                       uint64_t client_id, Nanos at)>;
  void SetApplyHook(ApplyHook hook) { apply_hook_ = std::move(hook); }

 private:
  struct LocalDevice {
    pcie::PcieDevice* device;
    DeviceType type;
    UtilProbe util_probe;
    HealthProbe health_probe;
    // Forwarded ops must carry this epoch; stale paths get kAborted.
    uint64_t epoch = 0;
    // Exactly-once dedup window: highest applied write seq per client.
    // A client's calls are serialized, so one high-water mark per client
    // is a complete window (a duplicate is always <= the mark).
    std::map<uint64_t, uint64_t> applied_write_seq;
    // Watchdog state.
    int mmio_misses = 0;            // consecutive probe deadline misses
    uint32_t fault_episodes = 0;    // wedges detected + repaired via FLR
  };

  sim::Task<Result<std::vector<std::byte>>> HandleForwarding(
      uint16_t method, std::span<const std::byte> payload,
      const msg::ServerContext& sctx);
  sim::Task<Result<std::vector<std::byte>>> HandleControl(
      uint16_t method, std::span<const std::byte> payload);
  sim::Task<> ReportLoop(msg::Endpoint& to_orchestrator, sim::StopToken& stop);
  sim::Task<> PeerProbeLoop(HostId peer, msg::Endpoint& endpoint,
                            sim::StopToken& stop);
  sim::Task<std::vector<DeviceStatus>> ProbeDevices();
  // Spawns a supervised serve loop counting as agent.rpc_*, under
  // `admission` when non-null.
  void Serve(msg::Endpoint& endpoint, msg::RpcServer::ContextHandler handler,
             msg::AdmissionController* admission, sim::StopToken& stop);

  cxl::HostAdapter& host_;
  Config config_;
  msg::AdmissionController admission_;
  Nanos slow_drain_ = 0;
  std::map<PcieDeviceId, LocalDevice> devices_;
  MigrationHandler migration_handler_;
  std::vector<std::unique_ptr<msg::RpcServer>> servers_;
  ApplyHook apply_hook_;
  // Lease clock: renewed only by a successful report round-trip.
  bool reporting_started_ = false;
  Nanos last_report_ok_ = 0;
  // Forwarded ops currently between admission and BAR completion. An
  // epoch push (fence) drains this to zero before acking, so a received
  // fence-ack proves no old-epoch op can still land.
  int inflight_forwarded_ = 0;
  // Peer probe view: last successful round-trip per probed peer.
  std::map<uint32_t, Nanos> peer_last_ok_;
  const obs::Scope& metrics_ = host_.metrics();
  // Forwarded ops applied to a local BAR.
  obs::Counter* forwarded_writes_ = metrics_.GetCounter("agent.forwarded_writes");
  obs::Counter* forwarded_reads_ = metrics_.GetCounter("agent.forwarded_reads");
  obs::Counter* reports_sent_ = metrics_.GetCounter("agent.reports_sent");
  obs::Counter* migrations_executed_ = metrics_.GetCounter("agent.migrations_executed");
  // Forwarded ops refused with kAborted.
  obs::Counter* stale_epoch_rejects_ = metrics_.GetCounter("agent.stale_epoch_rejects");
  obs::Counter* epoch_updates_ = metrics_.GetCounter("agent.epoch_updates");
  // Exactly-once forwarding: duplicate writes (timeout-triggered retries of
  // an already-applied op) acknowledged without re-applying.
  obs::Counter* dedup_hits_ = metrics_.GetCounter("agent.dedup_hits");
  // Watchdog: individual probe deadline misses, and FLR resets issued once
  // misses crossed wedge_miss_threshold.
  obs::Counter* watchdog_misses_ = metrics_.GetCounter("agent.watchdog_misses");
  obs::Counter* flr_resets_ = metrics_.GetCounter("agent.flr_resets");
  // Deadline propagation: forwarded ops whose budget expired after dequeue
  // but before the device BAR access (the pre-BAR re-check — the RPC
  // layer's dequeue check catches the rest).
  obs::Counter* expired_at_device_ = metrics_.GetCounter("agent.expired_at_device");
  // Split-brain safety: forwarded ops refused because this agent's lease
  // TTL expired without a report round-trip (self-fence), and peer-probe
  // traffic for the quorum mesh.
  obs::Counter* self_fence_rejects_ = metrics_.GetCounter("agent.self_fence_rejects");
  obs::Counter* peer_probes_sent_ = metrics_.GetCounter("agent.peer_probes_sent");
  obs::Counter* peer_probes_ok_ = metrics_.GetCounter("agent.peer_probes_ok");
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_AGENT_H_
