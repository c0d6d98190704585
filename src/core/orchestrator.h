// Pooling orchestrator (paper §4.2): the management-plane singleton that
// runs "as a special management container on one of the hosts in the CXL
// pod". It keeps the device registry, allocates devices to hosts
// (local-below-threshold, else least-utilized), consumes agent health/
// utilization reports over CXL channels, and drives failover and load-
// balancing migrations through the agents.
#ifndef SRC_CORE_ORCHESTRATOR_H_
#define SRC_CORE_ORCHESTRATOR_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/agent.h"
#include "src/core/mmio_path.h"
#include "src/cxl/pod.h"
#include "src/msg/channel.h"
#include "src/msg/retry.h"

namespace cxlpool::core {

class Orchestrator {
 public:
  struct Config {
    // A local device under this utilization is preferred over any remote
    // one (§4.2 allocation policy).
    double local_threshold = 0.75;
    // Devices above this utilization shed leases during rebalancing.
    double overload_threshold = 0.85;
    bool auto_rebalance = false;
    Nanos rebalance_interval = 200 * kMicrosecond;
    Nanos rpc_timeout = 2 * kMillisecond;
    // Quorum liveness + split-brain-safe fencing: an agent whose last
    // report is staler than liveness_timeout is marked kSuspect (fenced
    // from new grants and allocations; existing leases kept). It is
    // condemned only when a majority of the fresh alive observers (the
    // OTHER agents whose own reports are current) also lost it — their
    // reported peer_mask bit for it is clear — or when its lease TTL +
    // fence_margin has elapsed with no report, by which point the agent
    // has provably self-fenced. A partitioned-from-the-orchestrator-but-
    // alive host therefore survives as a suspect instead of being
    // overtaken. The sweep runs every liveness_interval.
    Nanos liveness_timeout = 300 * kMicrosecond;
    Nanos liveness_interval = 100 * kMicrosecond;
    // Lease TTL stamped into each agent whose own Config::lease_ttl is 0.
    // Also the orchestrator's wait horizon before an unacked fence
    // resolves. Must comfortably exceed the report cadence so healthy
    // agents never self-fence.
    Nanos lease_ttl = 800 * kMicrosecond;
    // Extra slack on top of lease_ttl before an unacked fence resolves by
    // TTL expiry. The agent renews its lease clock when the report
    // RESPONSE lands, up to one report rpc_timeout after the orchestrator
    // stamped the request's arrival — so this must be >= the agent's
    // report rpc_timeout for the expiry proof to hold.
    Nanos fence_margin = 500 * kMicrosecond;
    // Retry policy for control-plane RPCs (migrate, epoch pushes).
    msg::RetryPolicy::Options retry;
    // Retry policy handed to forwarded MMIO paths. Retries re-send the
    // SAME (client_id, seq) frame, so the home agent's dedup window turns
    // a timeout-triggered duplicate into an acknowledged no-op instead of
    // a double-applied doorbell.
    msg::RetryPolicy::Options mmio_retry;
    // Per-device circuit breaker shared by every forwarded MMIO path to
    // that device: consecutive transport failures (never kOverloaded —
    // push-back means the peer is alive) open it, open trips feed the
    // quarantine flap accounting via NoteFlaps.
    msg::CircuitBreaker::Options breaker;
    // Client-side send-queue bound and pipelining depth for forwarded
    // MMIO paths (per (user host, device) path). Queue bound defaults
    // unbounded; max_inflight defaults to 8 so independent
    // producers on one path overlap their forwarded writes instead of
    // serializing on the round trip. Exactly-once dedup at the home agent
    // is keyed by (client_id, seq), not by arrival order, so pipelined
    // completion reordering is safe.
    msg::RpcClient::Options mmio_client{.max_inflight = 8};
    // Gray-failure quarantine: a device accumulating this many flaps
    // (watchdog FLR episodes + fail-stop repair cycles) is pulled from the
    // allocatable pool for an exponentially growing probation period.
    // Must be >= 1.
    uint32_t quarantine_flap_threshold = 3;
    // Base probation; doubles with every quarantine entry for the device.
    Nanos quarantine_probation = 2 * kMillisecond;
    Agent::Config agent;
  };

  struct Assignment {
    PcieDeviceId device;
    HostId home;     // host the device is physically attached to
    bool local = false;
  };

  struct DeviceRecord {
    pcie::PcieDevice* device = nullptr;
    DeviceType type = DeviceType::kNic;
    HostId home;
    bool healthy = true;
    double utilization = 0.0;
    std::vector<HostId> lessees;
    Nanos last_report = 0;
    // Bumped whenever leases migrate off this device; forwarded MMIO paths
    // built under an older epoch are rejected by the home agent.
    uint64_t epoch = 0;
    // --- Gray-failure quarantine state ---
    // High-water mark of the home agent's reported fault_episodes counter.
    uint32_t reported_fault_episodes = 0;
    // Flaps accumulated toward the quarantine threshold.
    uint32_t flap_count = 0;
    // Set when a gray episode (agent FLR) was folded in; suppresses
    // counting the subsequent healthy transition as a second flap.
    bool gray_recovery_pending = false;
    bool quarantined = false;
    Nanos probation_until = 0;
    // Quarantine entries so far; probation doubles with each one.
    uint32_t quarantine_level = 0;
    // Set while a lease-revoking epoch bump is in flight to the home
    // agent: the device must not be granted again until the new epoch is
    // ACKED (proof: the agent drains in-flight forwarded ops before
    // installing an epoch) or the old holder's lease TTL has provably
    // expired. This is the split-brain re-issue gate.
    bool fence_pending = false;
    // Shared by every forwarded path to this device (see Config::breaker);
    // owned here so it survives path rebuilds across migrations.
    std::unique_ptr<msg::CircuitBreaker> breaker;
  };

  // `home` is the host running the orchestrator container, whose flight
  // ring takes the orchestrator's notes (liveness, fencing, quarantine,
  // breaker). Counts the orch.* series declared with its members into the
  // pod's registry, unlabeled. Its control-plane retries count retry.*
  // under the home host; each device's breaker counts breaker.* under
  // {"device": id}; each forwarded path's client and retries count under
  // the user host plus {"device": id}.
  Orchestrator(cxl::CxlPod& pod, HostId home, Config config);
  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  // Creates the agent for `host` plus its report/control channels, and
  // spawns the orchestrator-side servers. Call once per host, then Start().
  Result<Agent*> AddAgent(cxl::HostAdapter& host);
  Agent* agent(HostId host);

  // Registers a device with its owning agent and the global registry.
  void RegisterDevice(HostId home, pcie::PcieDevice* device, DeviceType type,
                      Agent::UtilProbe util_probe = nullptr);

  // Spawns reporting loops and (optionally) the rebalancer.
  void Start(sim::StopToken& stop);

  // --- Allocation (paper §4.2) ---
  Result<Assignment> Acquire(HostId user, DeviceType type);
  Status Release(HostId user, PcieDeviceId device);

  // Builds the MMIO path a `user` host needs for `device`: direct when
  // local, otherwise a fresh forwarding channel to the home agent. The
  // two-argument form uses Config::mmio_client for the forwarding RPC
  // client; the explicit form overrides it per path (benches compare
  // serialized max_inflight = 1 against pipelined depths this way).
  Result<std::unique_ptr<MmioPath>> MakeMmioPath(HostId user, PcieDeviceId device);
  Result<std::unique_ptr<MmioPath>> MakeMmioPath(HostId user, PcieDeviceId device,
                                                 msg::RpcClient::Options client_options);

  const DeviceRecord* record(PcieDeviceId device) const;
  const std::map<PcieDeviceId, DeviceRecord>& devices() const { return devices_; }
  // The device's circuit breaker (null for unknown devices). Tests and
  // benches assert on its state.
  msg::CircuitBreaker* breaker(PcieDeviceId device) {
    auto it = devices_.find(device);
    return it == devices_.end() ? nullptr : it->second.breaker.get();
  }

  // False once the liveness sweep declared the host's agent dead; true
  // again after it re-registers by reporting. Suspects count as alive.
  bool agent_alive(HostId host) const;
  // Agents currently in the suspect (fenced-but-not-condemned) liveness
  // state. Chaos recovery probes gate on 0 to time partition healing.
  uint32_t suspect_count() const;

  // Feeds `count` flaps into a device's quarantine accounting, exactly as
  // if its home agent had reported that many new fault episodes. Test and
  // chaos-harness hook; production flaps arrive through HandleReport.
  void NoteFlaps(PcieDeviceId device, uint32_t count);
  // True while the device is serving a quarantine probation (expires it
  // lazily if the probation is over).
  bool InQuarantine(PcieDeviceId device);

  // Test hook: process one rebalance scan immediately.
  sim::Task<> RebalanceOnce();

 private:
  struct AgentEntry {
    // kAlive: reports are fresh. kSuspect: reports stale, but not yet
    // condemned — the host is fenced (no new grants, its devices are not
    // offered) while its existing leases are kept; the next report
    // recovers it. kDead: condemned by peer quorum or lease TTL.
    enum class Liveness { kAlive, kSuspect, kDead };
    std::unique_ptr<Agent> agent;
    std::unique_ptr<msg::Channel> report_channel;   // agent -> orch RPC
    std::unique_ptr<msg::Channel> control_channel;  // orch -> agent RPC
    std::unique_ptr<msg::RpcServer> report_server;
    std::unique_ptr<msg::RpcClient> control_client;
    Nanos last_report = 0;
    Liveness liveness = Liveness::kAlive;
    // Reachability bitmap from this agent's last report (bit h = it could
    // reach host h recently); all-ones before any report.
    uint64_t peer_mask = ~0ull;
    // The lease TTL this agent actually runs with (stamped in AddAgent).
    Nanos lease_ttl = 0;
  };

  sim::Task<Result<std::vector<std::byte>>> HandleReport(
      uint16_t method, std::span<const std::byte> payload);
  // Adds flaps to `rec`; enters quarantine at the threshold (drains the
  // device's leases, probation doubles per entry).
  void AccumulateFlaps(PcieDeviceId id, DeviceRecord& rec, uint32_t count);
  // Lazy-expiring quarantine check used by every allocation scan.
  bool CheckQuarantine(DeviceRecord& rec);
  // Picks the best healthy device of `type` excluding `exclude`; least
  // utilized wins. Returns nullptr if none.
  DeviceRecord* PickDevice(DeviceType type, PcieDeviceId exclude);
  // Migrates every lease on `from` to a replacement; used by both
  // failover (from is unhealthy) and rebalancing.
  sim::Task<> MigrateLeases(PcieDeviceId from, bool failover);
  sim::Task<> RebalanceLoop(sim::StopToken& stop);
  // Periodically sweeps report staleness: stale agents turn suspect, and a
  // suspect is condemned only on peer votes or TTL expiry.
  sim::Task<> LivenessLoop(sim::StopToken& stop);
  // Peer votes against `host`: fresh alive observers whose reported
  // peer_mask clears this host's bit.
  uint32_t CondemnationVotes(HostId host, Nanos now,
                             uint32_t* fresh_observers) const;
  // Revokes the dead host's leases, fails its home devices, and spawns
  // failover for the leases stranded on them.
  void DeclareAgentDead(HostId host, AgentEntry& entry);
  // Starts fencing `rec`: bumps its epoch, marks fence_pending, and spawns
  // FenceLoop to push the epoch to the home agent. The device stays
  // ungrantable until the push is acked or `ttl + fence_margin` elapses.
  void FenceDevice(PcieDeviceId id, DeviceRecord& rec);
  sim::Task<> FenceLoop(PcieDeviceId device, uint64_t epoch, HostId home,
                        Nanos ttl_deadline, sim::StopToken& stop);
  // True when `rec`'s home host currently offers leases (alive, not
  // suspect) and the device itself is not mid-fence.
  bool Grantable(const DeviceRecord& rec) const;
  // Pushes `epoch` for `device` to its home agent (retried; best-effort).
  sim::Task<> PushEpoch(HostId home, PcieDeviceId device, uint64_t epoch);
  // After a host re-registers, re-sends current epochs for its devices.
  sim::Task<> ResyncEpochs(HostId host);

  cxl::CxlPod& pod_;
  HostId home_;
  Config config_;
  std::map<HostId, AgentEntry> agents_;
  std::map<PcieDeviceId, DeviceRecord> devices_;
  // Agent-to-agent probe channels (the liveness mesh), one per ordered
  // host pair, wired in Start().
  std::vector<std::unique_ptr<msg::Channel>> peer_channels_;
  std::vector<std::unique_ptr<msg::Channel>> forwarding_channels_;
  std::vector<std::shared_ptr<msg::RpcClient>> forwarding_clients_;
  sim::StopToken* stop_ = nullptr;
  msg::RetryPolicy retry_policy_;
  // Unique client_id per forwarded path, so the home agents' dedup windows
  // never alias two paths.
  uint64_t next_path_client_id_ = 0;
  obs::Registry& metrics_ = pod_.metrics();
  obs::Counter* acquires_ = metrics_.GetCounter("orch.acquires");
  // Acquisitions satisfied by a local device.
  obs::Counter* local_hits_ = metrics_.GetCounter("orch.local_hits");
  obs::Counter* failovers_ = metrics_.GetCounter("orch.failovers");
  obs::Counter* rebalances_ = metrics_.GetCounter("orch.rebalances");
  obs::Counter* reports_received_ = metrics_.GetCounter("orch.reports_received");
  // The liveness sweep declared an agent dead; a dead agent reported again.
  obs::Counter* host_deaths_ = metrics_.GetCounter("orch.host_deaths");
  obs::Counter* host_reregistrations_ = metrics_.GetCounter("orch.host_reregistrations");
  // Leases torn down (holder dead); migrate RPCs that failed after retries.
  obs::Counter* leases_revoked_ = metrics_.GetCounter("orch.leases_revoked");
  obs::Counter* abandoned_migrations_ = metrics_.GetCounter("orch.abandoned_migrations");
  // Quorum liveness + fencing: alive -> suspect -> alive transitions, deaths
  // confirmed by peer votes or by TTL expiry, and fences resolved by an
  // epoch ack or by TTL expiry.
  obs::Counter* suspects_ = metrics_.GetCounter("orch.suspects");
  obs::Counter* suspect_recoveries_ = metrics_.GetCounter("orch.suspect_recoveries");
  obs::Counter* condemned_by_quorum_ = metrics_.GetCounter("orch.condemned_by_quorum");
  obs::Counter* condemned_by_ttl_ = metrics_.GetCounter("orch.condemned_by_ttl");
  obs::Counter* fences_acked_ = metrics_.GetCounter("orch.fences_acked");
  obs::Counter* fences_ttl_expired_ = metrics_.GetCounter("orch.fences_ttl_expired");
  obs::Counter* quarantines_ = metrics_.GetCounter("orch.quarantines");
  obs::Counter* quarantine_releases_ = metrics_.GetCounter("orch.quarantine_releases");
  obs::Counter* quarantined_skips_ = metrics_.GetCounter("orch.quarantined_skips");
  obs::Counter* breaker_opens_ = metrics_.GetCounter("orch.breaker_opens");
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_ORCHESTRATOR_H_
