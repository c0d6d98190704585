#include "src/core/orchestrator.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/sim/logger.h"

namespace cxlpool::core {

Orchestrator::Orchestrator(cxl::CxlPod& pod, HostId home, Config config)
    : pod_(pod),
      home_(home),
      config_(config),
      retry_policy_(pod.host(home).metrics(), config.retry) {
  CXLPOOL_CHECK(config_.quarantine_flap_threshold > 0);
}

Result<Agent*> Orchestrator::AddAgent(cxl::HostAdapter& host) {
  if (agents_.contains(host.id())) {
    return AlreadyExists("agent already exists for host");
  }
  AgentEntry entry;
  Agent::Config agent_config = config_.agent;
  // Split-brain safety: every orchestrated agent runs a lease TTL, so an
  // unacked fence may resolve once TTL + fence_margin elapses (by then the
  // agent has provably self-fenced). The stamped value must match the
  // orchestrator's wait horizon; an explicit per-agent TTL wins.
  if (agent_config.lease_ttl == 0) {
    agent_config.lease_ttl = config_.lease_ttl;
  }
  entry.lease_ttl = agent_config.lease_ttl;
  entry.agent = std::make_unique<Agent>(host, agent_config);

  ASSIGN_OR_RETURN(entry.report_channel,
                   msg::Channel::Create(pod_.pool(), host, pod_.host(home_)));
  ASSIGN_OR_RETURN(entry.control_channel,
                   msg::Channel::Create(pod_.pool(), pod_.host(home_), host));
  entry.control_client =
      std::make_unique<msg::RpcClient>(entry.control_channel->end_a());

  Agent* agent = entry.agent.get();
  agents_.emplace(host.id(), std::move(entry));
  return agent;
}

Agent* Orchestrator::agent(HostId host) {
  auto it = agents_.find(host);
  return it == agents_.end() ? nullptr : it->second.agent.get();
}

void Orchestrator::RegisterDevice(HostId home, pcie::PcieDevice* device,
                                  DeviceType type, Agent::UtilProbe util_probe) {
  Agent* a = agent(home);
  CXLPOOL_CHECK(a != nullptr);
  a->RegisterDevice(device, type, util_probe);
  DeviceRecord rec;
  rec.device = device;
  rec.type = type;
  rec.home = home;
  // One breaker per device, shared across every forwarded path to it. An
  // open trip is a flap: it rides the same quarantine/probation machinery
  // as watchdog FLR episodes instead of duplicating it.
  PcieDeviceId id = device->id();
  rec.breaker = std::make_unique<msg::CircuitBreaker>(
      obs::Scope(pod_.metrics(), {{"device", std::to_string(id.value())}}),
      config_.breaker);
  rec.breaker->OnOpen([this, id] {
    breaker_opens_->Inc();
    pod_.host(home_).FlightNote("breaker", "dev=%u circuit breaker opened",
                                id.value());
    NoteFlaps(id, 1);
  });
  devices_.emplace(device->id(), std::move(rec));
}

void Orchestrator::Start(sim::StopToken& stop) {
  stop_ = &stop;
  // Quorum liveness runs on an agent-to-agent observation mesh: every
  // agent probes every peer over a dedicated channel and folds the
  // results into the peer_mask it reports. Wired before the serve loops
  // so the first reports already carry meaningful masks.
  for (auto& [a_id, a_entry] : agents_) {
    for (auto& [b_id, b_entry] : agents_) {
      if (a_id == b_id) {
        continue;
      }
      auto ch =
          msg::Channel::Create(pod_.pool(), pod_.host(a_id), pod_.host(b_id));
      if (!ch.ok()) {
        continue;
      }
      b_entry.agent->ServePeerProbe((*ch)->end_b(), stop);
      a_entry.agent->StartPeerProbe(b_id, (*ch)->end_a(), stop);
      peer_channels_.push_back(std::move(*ch));
    }
  }
  for (auto& [host_id, entry] : agents_) {
    // Orchestrator-side report server. Supervised: a channel blip (link or
    // MHD fault) aborts the serve loop, which restarts after backoff.
    entry.report_server = std::make_unique<msg::RpcServer>(
        entry.report_channel->end_b(),
        [this](uint16_t m, std::span<const std::byte> p) {
          return HandleReport(m, p);
        });
    sim::Spawn(entry.report_server->ServeSupervised(stop));
    // Agent-side services.
    entry.agent->ServeControl(entry.control_channel->end_b(), stop);
    entry.agent->StartReporting(entry.report_channel->end_a(), stop);
    // A host is innocent until its first report window elapses.
    entry.last_report = pod_.loop().now();
  }
  if (config_.auto_rebalance) {
    sim::Spawn(RebalanceLoop(stop));
  }
  sim::Spawn(LivenessLoop(stop));
}

sim::Task<Result<std::vector<std::byte>>> Orchestrator::HandleReport(
    uint16_t method, std::span<const std::byte> payload) {
  if (method != kMethodReport) {
    co_return Unimplemented("unknown report method");
  }
  auto decoded = report_wire::Decode(payload);
  if (!decoded.ok()) {
    co_return decoded.status();
  }
  reports_received_->Inc();
  Nanos now = pod_.loop().now();
  auto agent_it = agents_.find(decoded->reporter);
  if (agent_it != agents_.end()) {
    AgentEntry& entry = agent_it->second;
    entry.last_report = now;
    entry.peer_mask = decoded->peer_mask;
    switch (entry.liveness) {
      case AgentEntry::Liveness::kAlive:
        break;
      case AgentEntry::Liveness::kSuspect:
        // The suspect was merely slow/partitioned, not dead. It kept its
        // leases and its epochs, so no resync is needed — just lift the
        // fence on new grants.
        entry.liveness = AgentEntry::Liveness::kAlive;
        suspect_recoveries_->Inc();
        pod_.host(home_).FlightNote("liveness", "host=%u suspect recovered",
                                    decoded->reporter.value());
        CXLPOOL_LOG(Info) << "host " << decoded->reporter
                          << " recovered from suspect";
        break;
      case AgentEntry::Liveness::kDead:
        // Clean re-registration: the crashed host is back. Its devices
        // become eligible again as healthy statuses arrive below; resync
        // the lease epochs its agent missed while dead.
        entry.liveness = AgentEntry::Liveness::kAlive;
        host_reregistrations_->Inc();
        CXLPOOL_LOG(Info) << "host " << decoded->reporter
                          << " re-registered after crash";
        sim::Spawn(ResyncEpochs(decoded->reporter));
        break;
    }
  }
  for (const DeviceStatus& s : decoded->statuses) {
    auto it = devices_.find(s.device);
    if (it == devices_.end()) {
      continue;
    }
    DeviceRecord& rec = it->second;
    rec.utilization = s.utilization;
    rec.last_report = now;
    // Fold the agent's gray-fault episode counter into flap accounting.
    // The counter is monotonic; only the delta since the last report is
    // new information.
    uint32_t episode_delta = s.fault_episodes > rec.reported_fault_episodes
                                 ? s.fault_episodes - rec.reported_fault_episodes
                                 : 0;
    if (s.fault_episodes > rec.reported_fault_episodes) {
      rec.reported_fault_episodes = s.fault_episodes;
    }
    bool recovered = !rec.healthy && s.healthy;
    if (rec.healthy && !s.healthy) {
      rec.healthy = false;
      CXLPOOL_LOG(Info) << "device " << s.device << " reported unhealthy; "
                        << rec.lessees.size() << " lease(s) to migrate";
      // Fail over asynchronously; the report reply must not wait on it.
      sim::Spawn(MigrateLeases(s.device, /*failover=*/true));
    } else if (recovered) {
      rec.healthy = true;  // repaired; eligible for new leases
    }
    // One wedge episode surfaces twice: the FLR bumps fault_episodes AND
    // the device dips unhealthy then recovers. gray_recovery_pending makes
    // sure such an episode counts as ONE flap, while a pure fail-stop
    // repair cycle (no FLR involved) still counts through its recovery.
    uint32_t flaps = episode_delta;
    if (episode_delta > 0) {
      rec.gray_recovery_pending = true;
    }
    if (recovered) {
      if (rec.gray_recovery_pending) {
        rec.gray_recovery_pending = false;
      } else {
        ++flaps;
      }
    }
    if (flaps > 0) {
      AccumulateFlaps(s.device, rec, flaps);
    }
  }
  co_return std::vector<std::byte>{};
}

void Orchestrator::AccumulateFlaps(PcieDeviceId id, DeviceRecord& rec,
                                   uint32_t count) {
  rec.flap_count += count;
  if (rec.quarantined || rec.flap_count < config_.quarantine_flap_threshold) {
    return;
  }
  // Threshold crossed: the device flaps faster than its leases can
  // usefully live on it. Pull it from the allocatable pool for a
  // probation that doubles with every re-offense.
  rec.quarantined = true;
  rec.flap_count = 0;
  uint32_t shift = std::min<uint32_t>(rec.quarantine_level, 16);
  rec.probation_until =
      pod_.loop().now() + config_.quarantine_probation * (Nanos{1} << shift);
  ++rec.quarantine_level;
  quarantines_->Inc();
  pod_.host(home_).FlightNote("quarantine", "dev=%u quarantined level=%u until=%lld",
                              id.value(), rec.quarantine_level,
                              static_cast<long long>(rec.probation_until));
  CXLPOOL_LOG(Warning) << "device " << id << " quarantined (level "
                       << rec.quarantine_level << ", probation until "
                       << rec.probation_until << "ns)";
  // Drain current lessees: a flapping device is worse than a loaded one.
  sim::Spawn(MigrateLeases(id, /*failover=*/true));
}

bool Orchestrator::CheckQuarantine(DeviceRecord& rec) {
  if (!rec.quarantined) {
    return false;
  }
  if (pod_.loop().now() < rec.probation_until) {
    return true;
  }
  // Probation served: offer the device again with a clean flap slate. The
  // level sticks, so a repeat offender earns a doubled sentence.
  rec.quarantined = false;
  rec.flap_count = 0;
  quarantine_releases_->Inc();
  return false;
}

void Orchestrator::NoteFlaps(PcieDeviceId device, uint32_t count) {
  auto it = devices_.find(device);
  if (it != devices_.end() && count > 0) {
    AccumulateFlaps(device, it->second, count);
  }
}

bool Orchestrator::InQuarantine(PcieDeviceId device) {
  auto it = devices_.find(device);
  return it != devices_.end() && CheckQuarantine(it->second);
}

bool Orchestrator::Grantable(const DeviceRecord& rec) const {
  if (rec.fence_pending) {
    return false;  // re-issue gate: old holder not yet provably fenced
  }
  auto it = agents_.find(rec.home);
  // Suspect homes are fenced: their devices are not offered until a
  // report proves the host is back (dead homes are also unhealthy, but
  // the liveness check here closes the window before that lands).
  return it == agents_.end() ||
         it->second.liveness == AgentEntry::Liveness::kAlive;
}

Orchestrator::DeviceRecord* Orchestrator::PickDevice(DeviceType type,
                                                     PcieDeviceId exclude) {
  DeviceRecord* best = nullptr;
  for (auto& [id, rec] : devices_) {
    if (id == exclude || !rec.healthy || rec.type != type ||
        !Grantable(rec)) {
      continue;
    }
    if (CheckQuarantine(rec)) {
      quarantined_skips_->Inc();
      continue;
    }
    if (best == nullptr || rec.utilization < best->utilization ||
        (rec.utilization == best->utilization &&
         rec.lessees.size() < best->lessees.size())) {
      best = &rec;
    }
  }
  return best;
}

uint32_t Orchestrator::suspect_count() const {
  uint32_t n = 0;
  for (const auto& [id, entry] : agents_) {
    if (entry.liveness == AgentEntry::Liveness::kSuspect) {
      ++n;
    }
  }
  return n;
}

bool Orchestrator::agent_alive(HostId host) const {
  auto it = agents_.find(host);
  return it != agents_.end() &&
         it->second.liveness != AgentEntry::Liveness::kDead;
}

Result<Orchestrator::Assignment> Orchestrator::Acquire(HostId user, DeviceType type) {
  acquires_->Inc();
  auto agent_it = agents_.find(user);
  if (agent_it != agents_.end() &&
      agent_it->second.liveness != AgentEntry::Liveness::kAlive) {
    return FailedPrecondition(
        agent_it->second.liveness == AgentEntry::Liveness::kDead
            ? "requesting host is marked dead"
            : "requesting host is a liveness suspect");
  }
  // §4.2: "the orchestrator first checks if the host has a local PCIe
  // device that is below a load threshold."
  DeviceRecord* local_best = nullptr;
  PcieDeviceId local_id;
  for (auto& [id, rec] : devices_) {
    if (rec.type != type || !rec.healthy || rec.home != user ||
        !Grantable(rec)) {
      continue;
    }
    if (CheckQuarantine(rec)) {
      quarantined_skips_->Inc();
      continue;
    }
    if (rec.utilization < config_.local_threshold &&
        (local_best == nullptr || rec.utilization < local_best->utilization)) {
      local_best = &rec;
      local_id = id;
    }
  }
  if (local_best != nullptr) {
    local_best->lessees.push_back(user);
    local_hits_->Inc();
    return Assignment{local_id, user, /*local=*/true};
  }
  // "If not, the orchestrator selects the least-utilized device in the pod."
  DeviceRecord* best = PickDevice(type, PcieDeviceId::Invalid());
  if (best == nullptr) {
    return ResourceExhausted("no healthy device of requested type");
  }
  best->lessees.push_back(user);
  return Assignment{best->device->id(), best->home, best->home == user};
}

Status Orchestrator::Release(HostId user, PcieDeviceId device) {
  auto it = devices_.find(device);
  if (it == devices_.end()) {
    return NotFound("unknown device");
  }
  auto& lessees = it->second.lessees;
  auto pos = std::find(lessees.begin(), lessees.end(), user);
  if (pos == lessees.end()) {
    return FailedPrecondition("host holds no lease on this device");
  }
  lessees.erase(pos);
  return OkStatus();
}

Result<std::unique_ptr<MmioPath>> Orchestrator::MakeMmioPath(HostId user,
                                                             PcieDeviceId device) {
  return MakeMmioPath(user, device, config_.mmio_client);
}

Result<std::unique_ptr<MmioPath>> Orchestrator::MakeMmioPath(
    HostId user, PcieDeviceId device, msg::RpcClient::Options client_options) {
  auto it = devices_.find(device);
  if (it == devices_.end()) {
    return NotFound("unknown device");
  }
  DeviceRecord& rec = it->second;
  if (rec.home == user) {
    return std::unique_ptr<MmioPath>(std::make_unique<LocalMmioPath>(rec.device));
  }
  if (stop_ == nullptr) {
    return FailedPrecondition("orchestrator not started");
  }
  Agent* home_agent = agent(rec.home);
  if (home_agent == nullptr) {
    return Internal("no agent on device home host");
  }
  ASSIGN_OR_RETURN(auto channel, msg::Channel::Create(pod_.pool(), pod_.host(user),
                                                      pod_.host(rec.home)));
  home_agent->ServeForwarding(channel->end_b(), *stop_);
  auto client = std::make_shared<msg::RpcClient>(
      channel->end_a(), client_options,
      obs::Labels{{"device", std::to_string(device.value())}});
  // Each path gets a unique client_id: the home agent's dedup window is
  // keyed on it, so a timed-out-then-retried posted write is acknowledged
  // exactly once even across path rebuilds.
  auto path = std::make_unique<ForwardedMmioPath>(
      client, device, rec.epoch, config_.rpc_timeout, pod_.loop(),
      ++next_path_client_id_, config_.mmio_retry, *rec.breaker);
  forwarding_channels_.push_back(std::move(channel));
  forwarding_clients_.push_back(std::move(client));
  return std::unique_ptr<MmioPath>(std::move(path));
}

const Orchestrator::DeviceRecord* Orchestrator::record(PcieDeviceId device) const {
  auto it = devices_.find(device);
  return it == devices_.end() ? nullptr : &it->second;
}

sim::Task<> Orchestrator::MigrateLeases(PcieDeviceId from, bool failover) {
  auto it = devices_.find(from);
  if (it == devices_.end()) {
    co_return;
  }
  DeviceRecord& rec = it->second;
  std::vector<HostId> to_move;
  if (failover) {
    to_move = rec.lessees;  // everything must leave a failed device
  } else if (!rec.lessees.empty()) {
    to_move.push_back(rec.lessees.front());  // shed one lease per scan
  }
  if (to_move.empty()) {
    co_return;
  }

  // When every lease leaves the device, fence it: bump the epoch so
  // forwarded paths built under the old one get kAborted at the home
  // agent, and keep the device ungrantable until the agent acks the new
  // epoch (or the old lease TTL provably expires). Partial rebalances
  // keep the epoch: remaining lessees' paths stay valid.
  if (to_move.size() == rec.lessees.size()) {
    FenceDevice(from, rec);
  }

  for (HostId user : to_move) {
    auto pos = std::find(rec.lessees.begin(), rec.lessees.end(), user);
    if (pos == rec.lessees.end()) {
      continue;  // released concurrently
    }
    auto agent_it = agents_.find(user);
    if (agent_it == agents_.end() ||
        agent_it->second.liveness == AgentEntry::Liveness::kDead) {
      // The holder is dead: revoke instead of moving the lease with it.
      rec.lessees.erase(pos);
      leases_revoked_->Inc();
      continue;
    }
    DeviceRecord* target = PickDevice(rec.type, from);
    // A candidate mid-fence becomes grantable once its fence resolves
    // (epoch ack, usually microseconds for an alive home); wait for that
    // instead of stranding the lease on a transient gate.
    for (int waited = 0; target == nullptr && waited < 64; ++waited) {
      bool fence_in_flight = false;
      for (auto& [other_id, other] : devices_) {
        if (other_id != from && other.type == rec.type && other.fence_pending) {
          fence_in_flight = true;
          break;
        }
      }
      if (!fence_in_flight) {
        break;
      }
      co_await sim::Delay(pod_.loop(), 20 * kMicrosecond);
      target = PickDevice(rec.type, from);
    }
    if (target == nullptr) {
      CXLPOOL_LOG(Warning) << "no replacement device for " << from
                           << "; lease on host " << user << " stranded";
      co_return;
    }
    // Re-find the lease: the lessee list may have changed while waiting
    // out a fence above.
    pos = std::find(rec.lessees.begin(), rec.lessees.end(), user);
    if (pos == rec.lessees.end()) {
      continue;
    }
    rec.lessees.erase(pos);
    target->lessees.push_back(user);

    auto resp = co_await retry_policy_.Call(
        *agent_it->second.control_client, kMethodMigrate,
        migrate_wire::Encode(from, target->device->id(), target->home),
        config_.rpc_timeout, pod_.loop(), {}, 0, msg::kPriorityControl);
    // Member reads after the await below are safe: the orchestrator is
    // constructed before the event loop runs and destroyed only after
    // loop.Run*() returns, so a frame suspended in the Call above can
    // never resume past Orchestrator teardown (frames parked at
    // Shutdown are dropped with the loop, not resumed).
    if (!resp.ok()) {
      abandoned_migrations_->Inc();  // simlint: allow(member-read-after-await)
      CXLPOOL_LOG(Warning) << "migrate RPC to host " << user
                           << " abandoned after retries: " << resp.status();
      continue;
    }
    if (failover) {
      failovers_->Inc();  // simlint: allow(member-read-after-await)
    } else {
      rebalances_->Inc();  // simlint: allow(member-read-after-await)
    }
  }
}

uint32_t Orchestrator::CondemnationVotes(HostId host, Nanos now,
                                         uint32_t* fresh_observers) const {
  uint32_t fresh = 0;
  uint32_t votes = 0;
  for (const auto& [other_id, other] : agents_) {
    if (other_id == host ||
        other.liveness != AgentEntry::Liveness::kAlive ||
        now - other.last_report > config_.liveness_timeout) {
      continue;  // only fresh, alive peers get a vote
    }
    ++fresh;
    // A vote is an EXPLICIT cleared bit: an observer that never probed
    // this host reports all-ones and abstains (absence of evidence is not
    // a vote against).
    if (host.value() < 64 && (other.peer_mask & (1ull << host.value())) == 0) {
      ++votes;
    }
  }
  *fresh_observers = fresh;
  return votes;
}

sim::Task<> Orchestrator::LivenessLoop(sim::StopToken& stop) {
  while (!stop.stopped()) {
    co_await sim::Delay(pod_.loop(), config_.liveness_interval);
    Nanos now = pod_.loop().now();
    for (auto& [host_id, entry] : agents_) {
      if (entry.liveness == AgentEntry::Liveness::kDead) {
        continue;
      }
      Nanos staleness = now - entry.last_report;
      if (staleness <= config_.liveness_timeout) {
        continue;
      }
      if (entry.liveness == AgentEntry::Liveness::kAlive) {
        entry.liveness = AgentEntry::Liveness::kSuspect;
        suspects_->Inc();
        pod_.host(home_).FlightNote("liveness", "host=%u suspect (stale for %lld ns)",
                                    host_id.value(), static_cast<long long>(staleness));
        CXLPOOL_LOG(Warning) << "host " << host_id << " suspect (" << staleness
                             << "ns since last report)";
      }
      // Condemnation is evaluated in the same sweep as the suspect
      // transition, so a genuinely crashed host (peers vote immediately)
      // dies within one liveness_timeout + sweep.
      uint32_t fresh = 0;
      uint32_t votes = CondemnationVotes(host_id, now, &fresh);
      if (fresh > 0 && votes >= fresh / 2 + 1) {
        condemned_by_quorum_->Inc();
        DeclareAgentDead(host_id, entry);
        continue;
      }
      // No quorum (e.g. full partition that also splits the peers, or no
      // fresh observers at all): fall back to the lease TTL. Past
      // ttl + fence_margin the agent has provably self-fenced, so
      // condemning it cannot create a second writer.
      if (entry.lease_ttl > 0 &&
          staleness > entry.lease_ttl + config_.fence_margin) {
        condemned_by_ttl_->Inc();
        DeclareAgentDead(host_id, entry);
      }
    }
  }
}

void Orchestrator::DeclareAgentDead(HostId host, AgentEntry& entry) {
  entry.liveness = AgentEntry::Liveness::kDead;
  host_deaths_->Inc();
  pod_.host(home_).FlightNote(
      "liveness", "host=%u declared dead (stale for %lld ns)", host.value(),
      static_cast<long long>(pod_.loop().now() - entry.last_report));
  CXLPOOL_LOG(Warning) << "host " << host << " declared dead ("
                       << (pod_.loop().now() - entry.last_report)
                       << "ns since last report)";
  // Revoke every lease the dead host holds, pool-wide. Each revocation
  // fences its device: the "dead" holder may in fact be alive behind a
  // partition with writes still in flight, so the device must not be
  // granted again until its home agent acked the epoch bump (or the old
  // lease TTL has provably expired).
  for (auto& [dev_id, rec] : devices_) {
    size_t before = rec.lessees.size();
    std::erase(rec.lessees, host);
    size_t revoked = before - rec.lessees.size();
    if (revoked > 0) {
      leases_revoked_->Add(revoked);
      FenceDevice(dev_id, rec);
    }
  }
  // Its attached devices are unreachable until repair; fail over the leases
  // stranded on them.
  for (auto& [dev_id, rec] : devices_) {
    if (rec.home == host && rec.healthy) {
      rec.healthy = false;
      sim::Spawn(MigrateLeases(dev_id, /*failover=*/true));
    }
  }
}

void Orchestrator::FenceDevice(PcieDeviceId id, DeviceRecord& rec) {
  ++rec.epoch;
  rec.fence_pending = true;
  auto home_it = agents_.find(rec.home);
  Nanos ttl =
      home_it != agents_.end() ? home_it->second.lease_ttl : config_.lease_ttl;
  // The deadline is measured from NOW, which is >= the home agent's last
  // report receipt — so waiting it out is a conservative proof that the
  // agent's own lease clock (renewed at most fence_margin after our
  // receipt timestamp) has expired.
  Nanos deadline = pod_.loop().now() + ttl + config_.fence_margin;
  pod_.host(home_).FlightNote("fence", "dev=%u fencing at epoch=%llu", id.value(),
                              static_cast<unsigned long long>(rec.epoch));
  if (stop_ == nullptr) {
    // Not started: no serve loops and no forwarded paths exist yet, so
    // there is no old holder to wait out — the bumped epoch alone fences.
    rec.fence_pending = false;
    return;
  }
  sim::Spawn(FenceLoop(id, rec.epoch, rec.home, deadline, *stop_));
}

sim::Task<> Orchestrator::FenceLoop(PcieDeviceId device, uint64_t epoch,
                                    HostId home, Nanos ttl_deadline,
                                    sim::StopToken& stop) {
  while (!stop.stopped()) {
    bool acked = false;
    auto it = agents_.find(home);
    bool home_dead = it == agents_.end() ||
                     it->second.liveness == AgentEntry::Liveness::kDead;
    if (!home_dead) {
      auto resp = co_await retry_policy_.Call(
          *it->second.control_client, kMethodEpoch,
          epoch_wire::Encode(device, epoch), config_.rpc_timeout, pod_.loop(),
          {}, 0, msg::kPriorityControl);
      acked = resp.ok();
    }
    // Member reads below each await are safe for the same reason as in
    // MigrateLeases: the orchestrator outlives the event loop.
    auto dev_it = devices_.find(device);
    if (dev_it == devices_.end()) {
      co_return;
    }
    DeviceRecord& rec = dev_it->second;
    if (rec.epoch != epoch) {
      co_return;  // superseded by a newer fence, which owns the gate now
    }
    Nanos now = pod_.loop().now();
    if (acked) {
      // The ack proves the agent drained every in-flight forwarded op
      // before installing the new epoch: no old-epoch op can ever apply.
      if (rec.fence_pending) {
        rec.fence_pending = false;
        fences_acked_->Inc();
        pod_.host(home_).FlightNote("fence", "dev=%u epoch=%llu fence acked",
                                    device.value(),
                                    static_cast<unsigned long long>(epoch));
      }
      co_return;
    }
    if (now >= ttl_deadline) {
      if (rec.fence_pending) {
        rec.fence_pending = false;
        fences_ttl_expired_->Inc();
        pod_.host(home_).FlightNote("fence",
                                    "dev=%u epoch=%llu fence resolved by TTL expiry",
                                    device.value(),
                                    static_cast<unsigned long long>(epoch));
        CXLPOOL_LOG(Warning)
            << "fence for device " << device << " resolved by TTL expiry; "
            << "home agent on host " << home << " never acked";
      }
      // Past the TTL the grant gate is open either way. Keep pushing only
      // while the home might be alive-but-partitioned: a suspect that
      // heals would otherwise resume applying under the OLD epoch until
      // its next push. A dead host re-learns epochs via ResyncEpochs.
      if (home_dead) {
        co_return;
      }
    }
    co_await sim::Delay(pod_.loop(), config_.liveness_interval);
  }
}

sim::Task<> Orchestrator::PushEpoch(HostId home, PcieDeviceId device,
                                    uint64_t epoch) {
  auto it = agents_.find(home);
  if (it == agents_.end() ||
      it->second.liveness == AgentEntry::Liveness::kDead) {
    co_return;  // resynced when the host re-registers
  }
  auto resp = co_await retry_policy_.Call(
      *it->second.control_client, kMethodEpoch,
      epoch_wire::Encode(device, epoch), config_.rpc_timeout, pod_.loop(), {},
      0, msg::kPriorityControl);
  if (!resp.ok()) {
    CXLPOOL_LOG(Warning) << "epoch push for device " << device << " to host "
                         << home << " failed: " << resp.status();
  }
}

sim::Task<> Orchestrator::ResyncEpochs(HostId host) {
  for (auto& [dev_id, rec] : devices_) {
    if (rec.home == host && rec.epoch != 0) {
      co_await PushEpoch(host, dev_id, rec.epoch);
    }
  }
}

sim::Task<> Orchestrator::RebalanceOnce() {
  std::vector<PcieDeviceId> overloaded;
  for (auto& [id, rec] : devices_) {
    if (!rec.healthy || rec.lessees.empty()) {
      continue;
    }
    if (rec.utilization <= config_.overload_threshold) {
      continue;
    }
    DeviceRecord* target = PickDevice(rec.type, id);
    // Only worth moving if a clearly less-loaded device exists, and never
    // drain a device below the target's lease count (utilization reports
    // lag; the count guard prevents ping-pong on stale numbers).
    if (target != nullptr && target->utilization + 0.2 < rec.utilization &&
        target->lessees.size() < rec.lessees.size()) {
      overloaded.push_back(id);
    }
  }
  for (PcieDeviceId id : overloaded) {
    co_await MigrateLeases(id, /*failover=*/false);
  }
}

sim::Task<> Orchestrator::RebalanceLoop(sim::StopToken& stop) {
  while (!stop.stopped()) {
    co_await sim::Delay(pod_.loop(), config_.rebalance_interval);
    co_await RebalanceOnce();
  }
}

}  // namespace cxlpool::core
