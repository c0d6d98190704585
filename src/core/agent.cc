#include "src/core/agent.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"
#include "src/devices/nic.h"
#include "src/msg/wire.h"

namespace cxlpool::core {

namespace report_wire {

std::vector<std::byte> Encode(HostId reporter, uint64_t peer_mask,
                              std::span<const DeviceStatus> statuses) {
  std::vector<std::byte> out;
  msg::wire::Writer w(&out);
  w.U32(reporter.value());
  w.U64(peer_mask);
  w.U32(static_cast<uint32_t>(statuses.size()));
  for (const DeviceStatus& s : statuses) {
    w.U32(s.device.value());
    w.U8(static_cast<uint8_t>(s.type));
    w.U8(s.healthy ? 1 : 0);
    w.U64(std::bit_cast<uint64_t>(s.utilization));
    w.U32(s.fault_episodes);
  }
  return out;
}

Result<Decoded> Decode(std::span<const std::byte> payload) {
  if (payload.size() < 16) {
    return InvalidArgument("short report frame");
  }
  msg::wire::Reader r(payload);
  Decoded d;
  d.reporter = HostId(r.U32());
  d.peer_mask = r.U64();
  uint32_t count = r.U32();
  // 64-bit arithmetic: a hostile/bit-flipped count near UINT32_MAX must
  // not wrap the product past the length check and CHECK-fail inside the
  // Reader (lossy links deliver exactly such frames).
  if (r.remaining() < static_cast<uint64_t>(count) * 18u) {
    return InvalidArgument("truncated report frame");
  }
  d.statuses.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DeviceStatus s;
    s.device = PcieDeviceId(r.U32());
    s.type = static_cast<DeviceType>(r.U8());
    s.healthy = r.U8() != 0;
    s.utilization = std::bit_cast<double>(r.U64());
    s.fault_episodes = r.U32();
    d.statuses.push_back(s);
  }
  return d;
}

}  // namespace report_wire

namespace migrate_wire {

std::vector<std::byte> Encode(PcieDeviceId old_dev, PcieDeviceId new_dev,
                              HostId new_home) {
  std::vector<std::byte> out;
  msg::wire::Writer w(&out);
  w.U32(old_dev.value());
  w.U32(new_dev.value());
  w.U32(new_home.value());
  return out;
}

Result<Decoded> Decode(std::span<const std::byte> payload) {
  if (payload.size() < 12) {
    return InvalidArgument("short migrate frame");
  }
  msg::wire::Reader r(payload);
  Decoded d;
  d.old_dev = PcieDeviceId(r.U32());
  d.new_dev = PcieDeviceId(r.U32());
  d.new_home = HostId(r.U32());
  return d;
}

}  // namespace migrate_wire

namespace epoch_wire {

std::vector<std::byte> Encode(PcieDeviceId device, uint64_t epoch) {
  std::vector<std::byte> out;
  msg::wire::Writer w(&out);
  w.U32(device.value());
  w.U64(epoch);
  return out;
}

Result<Decoded> Decode(std::span<const std::byte> payload) {
  if (payload.size() < 12) {
    return InvalidArgument("short epoch frame");
  }
  msg::wire::Reader r(payload);
  Decoded d;
  d.device = PcieDeviceId(r.U32());
  d.epoch = r.U64();
  return d;
}

}  // namespace epoch_wire

void Agent::RegisterDevice(pcie::PcieDevice* device, DeviceType type,
                           UtilProbe util_probe, HealthProbe health_probe) {
  CXLPOOL_CHECK(device != nullptr);
  LocalDevice entry;
  entry.device = device;
  entry.type = type;
  entry.util_probe = std::move(util_probe);
  entry.health_probe = std::move(health_probe);
  devices_.emplace(device->id(), std::move(entry));
}

pcie::PcieDevice* Agent::FindDevice(PcieDeviceId id) {
  auto it = devices_.find(id);
  return it == devices_.end() ? nullptr : it->second.device;
}

uint64_t Agent::device_epoch(PcieDeviceId id) const {
  auto it = devices_.find(id);
  return it == devices_.end() ? 0 : it->second.epoch;
}

uint32_t Agent::device_fault_episodes(PcieDeviceId id) const {
  auto it = devices_.find(id);
  return it == devices_.end() ? 0 : it->second.fault_episodes;
}

bool Agent::self_fenced() const {
  if (config_.lease_ttl <= 0 || !reporting_started_) {
    return false;
  }
  return host_.loop().now() - last_report_ok_ > config_.lease_ttl;
}

uint64_t Agent::peer_mask() {
  uint64_t mask = ~0ull;
  Nanos stale = 2 * config_.peer_probe_interval + config_.peer_probe_timeout;
  Nanos now = host_.loop().now();
  for (const auto& [peer, last_ok] : peer_last_ok_) {
    if (peer < 64 && now - last_ok > stale) {
      mask &= ~(1ull << peer);
    }
  }
  return mask;
}

sim::Task<Result<std::vector<std::byte>>> Agent::HandleForwarding(
    uint16_t method, std::span<const std::byte> payload,
    const msg::ServerContext& sctx) {
  obs::TraceContext ctx = sctx.trace;
  bool is_write = method == kMethodMmioWrite;
  if (!is_write && method != kMethodMmioRead) {
    co_return Unimplemented("unknown forwarding method");
  }
  if (slow_drain_ > 0) {
    // Chaos: a slow-draining agent. The stall sits BEFORE the deadline
    // re-check so ops that die during it are shed, not applied late.
    co_await sim::Delay(host_.loop(), slow_drain_);
  }
  // Pre-BAR deadline re-check. The RPC layer already shed requests that
  // were dead on dequeue; this catches budgets that ran out between
  // dequeue and here (slow drain, queued handler work). Past this point
  // the op touches device state, so this is the last cheap exit.
  if (sctx.deadline > 0 && host_.loop().now() >= sctx.deadline) {
    expired_at_device_->Inc();
    host_.FlightNote("mmio", "pre-BAR deadline expiry method=%u", method);
    co_return DeadlineExceeded("op deadline expired before device BAR");
  }
  auto decoded = mmio_wire::Decode(payload, is_write);
  if (!decoded.ok()) {
    co_return decoded.status();
  }
  auto it = devices_.find(decoded->device);
  if (it == devices_.end()) {
    co_return NotFound("device not on this host");
  }
  // Self-fence: the lease TTL lapsed without a report round-trip, so the
  // orchestrator may already be re-issuing this device under a new epoch
  // it could not push to us. Refusing here (before the epoch check, which
  // would wrongly admit the op — our epoch is stale too) is what makes
  // "wait out the TTL" a sound fencing proof on the orchestrator side.
  if (self_fenced()) {
    self_fence_rejects_->Inc();
    host_.FlightNote("mmio", "self-fence reject dev=%u (lease TTL expired)",
                     decoded->device.value());
    co_return Aborted("agent lease TTL expired; self-fenced");
  }
  if (decoded->epoch != it->second.epoch) {
    stale_epoch_rejects_->Inc();
    host_.FlightNote("mmio", "stale-epoch reject dev=%u epoch=%llu (local %llu)",
                     decoded->device.value(),
                     static_cast<unsigned long long>(decoded->epoch),
                     static_cast<unsigned long long>(it->second.epoch));
    co_return Aborted("stale lease epoch");
  }
  pcie::PcieDevice* device = it->second.device;
  if (is_write) {
    // Exactly-once: a timed-out attempt is usually already in our request
    // ring and has been (or will be) applied; the client retries with the
    // same (client_id, seq). Acknowledge duplicates without touching the
    // device — re-ringing a doorbell advances device state twice.
    // The epoch check above still wins: a fenced-off path gets kAborted,
    // never a dedup ack.
    auto [seq_it, inserted] =
        it->second.applied_write_seq.try_emplace(decoded->client_id, 0);
    if (!inserted && decoded->seq <= seq_it->second) {
      dedup_hits_->Inc();
      host_.FlightNote("mmio", "dedup ack dev=%u client=%llu seq=%llu",
                       decoded->device.value(),
                       static_cast<unsigned long long>(decoded->client_id),
                       static_cast<unsigned long long>(decoded->seq));
      co_return std::vector<std::byte>{};
    }
    forwarded_writes_->Inc();
    obs::Span bar = obs::MaybeStartSpan(host_.tracer(), "mmio.device_bar",
                                        host_.id().value(), ctx,
                                        host_.loop().now());
    // The inflight window opens here with NO suspension point since the
    // epoch check above, and an epoch push drains it before acking — so a
    // fence-ack proves no admitted op under the old epoch is still
    // heading for the BAR.
    ++inflight_forwarded_;
    Status st = co_await device->MmioWrite(decoded->reg, decoded->value);
    --inflight_forwarded_;
    bar.End(host_.loop().now());
    if (!st.ok()) {
      co_return st;
    }
    if (apply_hook_) {
      apply_hook_(decoded->device, decoded->epoch, decoded->client_id,
                  host_.loop().now());
    }
    // Record only after a successful apply: a write the device rejected had
    // no side effect, so its retry must be allowed to run for real.
    uint64_t& mark = it->second.applied_write_seq[decoded->client_id];
    mark = std::max(mark, decoded->seq);
    co_return std::vector<std::byte>{};
  }
  forwarded_reads_->Inc();
  obs::Span bar = obs::MaybeStartSpan(host_.tracer(), "mmio.device_bar",
                                      host_.id().value(), ctx,
                                      host_.loop().now());
  ++inflight_forwarded_;
  auto value = co_await device->MmioRead(decoded->reg);
  --inflight_forwarded_;
  bar.End(host_.loop().now());
  if (!value.ok()) {
    co_return value.status();
  }
  std::vector<std::byte> resp(8);
  msg::wire::PutU64(resp.data(), *value);
  co_return resp;
}

sim::Task<Result<std::vector<std::byte>>> Agent::HandleControl(
    uint16_t method, std::span<const std::byte> payload) {
  if (method == kMethodEpoch) {
    auto decoded = epoch_wire::Decode(payload);
    if (!decoded.ok()) {
      co_return decoded.status();
    }
    // Fence barrier: ops admitted under the old epoch may be mid-flight
    // between their epoch check and the device BAR. Drain them before
    // installing the new epoch and acking — once the orchestrator sees
    // this ack, no old-epoch op can apply, ever (later arrivals fail the
    // epoch check). Forwarding and control ride separate channels and
    // serve loops, so waiting here never blocks the drain itself; BAR ops
    // are deadline-bounded (wedge watchdog), so the wait terminates.
    while (inflight_forwarded_ > 0) {
      co_await sim::Delay(host_.loop(), kMicrosecond);
    }
    auto it = devices_.find(decoded->device);
    if (it == devices_.end()) {
      co_return NotFound("device not on this host");
    }
    it->second.epoch = decoded->epoch;
    epoch_updates_->Inc();
    co_return std::vector<std::byte>{};
  }
  if (method != kMethodMigrate) {
    co_return Unimplemented("unknown control method");
  }
  auto decoded = migrate_wire::Decode(payload);
  if (!decoded.ok()) {
    co_return decoded.status();
  }
  if (migration_handler_) {
    co_await migration_handler_(decoded->old_dev, decoded->new_dev,
                                decoded->new_home);
  }
  migrations_executed_->Inc();
  co_return std::vector<std::byte>{};
}

void Agent::Serve(msg::Endpoint& endpoint, msg::RpcServer::ContextHandler handler,
                  msg::AdmissionController* admission, sim::StopToken& stop) {
  auto server =
      std::make_unique<msg::RpcServer>(endpoint, std::move(handler), "agent.rpc_");
  server->BindAdmission(admission);
  sim::Spawn(server->ServeSupervised(stop));
  servers_.push_back(std::move(server));
}

void Agent::ServeForwarding(msg::Endpoint& endpoint, sim::StopToken& stop) {
  // Every forwarding loop shares the agent's one admission controller, so
  // the inflight bound and the CoDel state span all remote users.
  Serve(endpoint,
        [this](uint16_t m, std::span<const std::byte> p,
               const msg::ServerContext& sctx) { return HandleForwarding(m, p, sctx); },
        &admission_, stop);
}

void Agent::ServeControl(msg::Endpoint& endpoint, sim::StopToken& stop) {
  Serve(endpoint,
        [this](uint16_t m, std::span<const std::byte> p, const msg::ServerContext&) {
          return HandleControl(m, p);
        },
        nullptr, stop);
}

void Agent::StartReporting(msg::Endpoint& to_orchestrator, sim::StopToken& stop) {
  // The lease clock starts with a full TTL of credit: the agent is not
  // fenced before its first report has had a chance to round-trip.
  reporting_started_ = true;
  last_report_ok_ = host_.loop().now();
  sim::Spawn(ReportLoop(to_orchestrator, stop));
}

void Agent::ServePeerProbe(msg::Endpoint& endpoint, sim::StopToken& stop) {
  // A crashed host's serve loop aborts on its first memory op and the
  // supervisor keeps failing to restart it — so crashed peers simply stop
  // answering, which is exactly the signal the probe measures.
  Serve(endpoint,
        [](uint16_t m, std::span<const std::byte>,
           const msg::ServerContext&) -> sim::Task<Result<std::vector<std::byte>>> {
          if (m != kMethodPeerProbe) {
            co_return Unimplemented("unknown peer method");
          }
          co_return std::vector<std::byte>{};
        },
        nullptr, stop);
}

void Agent::StartPeerProbe(HostId peer, msg::Endpoint& endpoint,
                           sim::StopToken& stop) {
  // Grace: a freshly wired peer counts reachable for one staleness bound.
  peer_last_ok_[peer.value()] = host_.loop().now();
  sim::Spawn(PeerProbeLoop(peer, endpoint, stop));
}

sim::Task<> Agent::PeerProbeLoop(HostId peer, msg::Endpoint& endpoint,
                                 sim::StopToken& stop) {
  msg::RpcClient client(endpoint);
  while (!stop.stopped()) {
    if (host_.crashed()) {
      co_await sim::Delay(host_.loop(), config_.peer_probe_interval);
      continue;
    }
    peer_probes_sent_->Inc();
    auto resp = co_await client.Call(
        kMethodPeerProbe, {}, host_.loop().now() + config_.peer_probe_timeout,
        {}, msg::kPriorityControl);
    if (resp.ok()) {
      peer_probes_ok_->Inc();
      peer_last_ok_[peer.value()] = host_.loop().now();
    }
    co_await sim::Delay(host_.loop(), config_.peer_probe_interval);
  }
}

sim::Task<std::vector<DeviceStatus>> Agent::ProbeDevices() {
  std::vector<DeviceStatus> statuses;
  for (auto& [id, entry] : devices_) {
    DeviceStatus s;
    s.device = id;
    s.type = entry.type;
    s.healthy = !entry.device->failed();
    if (s.healthy) {
      // Watchdog probe over real MMIO, like a production agent would. For
      // NICs the link-status read does double duty as the wedge probe; a
      // fail-stopped device is skipped (immediate kUnavailable already
      // drives the fail-stop path). A wedged device answers nothing: the
      // probe stalls for the completion timeout and comes back
      // kDeadlineExceeded — the gray signature the watchdog keys on.
      uint64_t probe_reg =
          entry.type == DeviceType::kNic ? devices::kNicRegLinkStatus : 0;
      auto probe = co_await entry.device->MmioRead(probe_reg);
      if (!probe.ok() &&
          probe.status().code() == StatusCode::kDeadlineExceeded) {
        watchdog_misses_->Inc();
        ++entry.mmio_misses;
        s.healthy = false;
        host_.FlightNote("watchdog", "probe miss dev=%u consecutive=%d", id.value(),
                         entry.mmio_misses);
        if (entry.mmio_misses >= config_.wedge_miss_threshold) {
          // FLR: drains engines via the generation bump, re-initializes
          // BAR state, clears the wedge. The episode is reported to the
          // orchestrator through fault_episodes below.
          entry.device->Reset();
          flr_resets_->Inc();
          ++entry.fault_episodes;
          entry.mmio_misses = 0;
          host_.FlightNote("watchdog", "FLR reset dev=%u episode=%u", id.value(),
                           entry.fault_episodes);
        }
      } else {
        entry.mmio_misses = 0;
        if (entry.type == DeviceType::kNic) {
          s.healthy = probe.ok() && *probe == 1;
        } else if (!probe.ok()) {
          s.healthy = false;
        }
      }
    }
    if (s.healthy && entry.health_probe) {
      s.healthy = entry.health_probe();
    }
    s.utilization = entry.util_probe ? entry.util_probe() : 0.0;
    s.fault_episodes = entry.fault_episodes;
    statuses.push_back(s);
  }
  co_return statuses;
}

sim::Task<> Agent::ReportLoop(msg::Endpoint& to_orchestrator, sim::StopToken& stop) {
  msg::RpcClient client(to_orchestrator);
  while (!stop.stopped()) {
    // A crashed host's agent goes dormant: no probes, no reports. Its
    // silence is what the orchestrator's liveness sweep detects.
    if (host_.crashed()) {
      co_await sim::Delay(host_.loop(), config_.monitor_interval);
      continue;
    }
    std::vector<DeviceStatus> statuses = co_await ProbeDevices();
    // An empty report still goes out — it is the host's heartbeat.
    // Reports are control plane: they jump client queues and are never
    // shed, so heartbeats keep flowing through a data-plane storm.
    auto resp = co_await client.Call(
        kMethodReport, report_wire::Encode(host_.id(), peer_mask(), statuses),
        host_.loop().now() + config_.rpc_timeout, {}, msg::kPriorityControl);
    if (resp.ok()) {
      reports_sent_->Inc();
      // Lease renewal: ONLY a full report round-trip renews the TTL.
      // Receiving control traffic must not — an asymmetric link can
      // deliver orchestrator→agent while agent→orchestrator drops, and
      // the orchestrator's TTL-expiry proof counts from the last report
      // it saw, so renewal has to track the same events.
      last_report_ok_ = host_.loop().now();
    }
    co_await sim::Delay(host_.loop(), config_.monitor_interval);
  }
}

}  // namespace cxlpool::core
