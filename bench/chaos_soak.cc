// Chaos soak: a randomized, seeded fault storm against the full control
// plane (§4.2 orchestrator + agents) and the §5 fault model. Hosts crash
// and reboot, CXL links and an MHD flap, a pooled accelerator fail-stops,
// devices wedge (gray: MMIO stalls instead of erroring) until the home
// agent's watchdog FLRs them, and pool media lines get poisoned until the
// replication scrubber repairs them — all on a schedule drawn
// deterministically from one seed — while lessee hosts keep driving
// doorbell traffic and re-acquiring leases whenever theirs die.
//
// Reported: MTTR percentiles overall and per fault class (host-crash vs
// link vs wedge vs poison recover through different machinery), the
// injection trace digest, control-plane counters (including watchdog
// FLRs, dedup hits, and quarantine activity), scrubber results, and a
// bit-for-bit reproducibility check (two runs of the same seed must
// produce identical digests and event counts).
//
// `--short` runs a reduced-horizon but otherwise identical soak for CI.
//
// `--faults=<comma-list>` keeps only the named fault CLASSES (host-crash,
// link, mhd, device-failstop, wedge-device, overload-drain, poison-line,
// partition, asym_link, lossy_link). A non-empty filter also switches the
// planner into STORM mode (denser schedule, shorter outages) — e.g.
// `--faults=partition,asym_link,lossy_link` is the network-partition
// storm the split-brain machinery is certified against.
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "src/analysis/coherence_checker.h"
#include "src/analysis/lease_oracle.h"
#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/cxl/replication.h"
#include "src/netsim/fault_plane.h"
#include "src/obs/obs.h"
#include "src/sim/chaos.h"
#include "src/sim/task.h"

using namespace cxlpool;
using namespace cxlpool::core;
using sim::Spawn;
using sim::Task;

namespace {

// Register-file accelerator stand-in: traffic rings its doorbell.
class DoorbellDevice : public pcie::PcieDevice {
 public:
  DoorbellDevice(PcieDeviceId id, sim::EventLoop& loop)
      : PcieDevice(id, "doorbell", loop, cxl::LinkSpec{}, pcie::PcieTiming{}) {}

  std::map<uint64_t, uint64_t> regs;
  // Every write that actually landed on the register file. The soak's
  // lost-acked-write check needs the device-side ground truth: total
  // applies must cover every op the clients saw acknowledged.
  uint64_t writes_applied = 0;

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override {
    regs[reg] = value;
    ++writes_applied;
  }
  uint64_t OnMmioRead(uint64_t reg) override { return regs[reg]; }
};

struct TrafficStats {
  uint64_t ops_ok = 0;
  uint64_t ops_failed = 0;
  uint64_t reacquires = 0;
};

// Lessee workload: hold an accel lease, ring its doorbell every few µs.
// Transient op failures are tolerated for a while — the agent's health
// report plus an orchestrator-driven migration (which rebinds `lease`
// through the migration handler) is the preferred recovery path; only a
// persistently dead lease is dropped and re-acquired.
Task<> Traffic(Rack& rack, HostId host, std::unique_ptr<Rack::Lease>& lease,
               TrafficStats& stats, sim::StopToken& stop) {
  uint64_t seq = 0;
  int consecutive_failures = 0;
  while (!stop.stopped()) {
    if (rack.pod().HostCrashed(host)) {
      lease.reset();  // the orchestrator revokes a dead host's leases
      consecutive_failures = 0;
      co_await sim::Delay(rack.loop(), 20 * kMicrosecond);
      continue;
    }
    if (lease == nullptr) {
      auto acquired = rack.AcquireDevice(host, DeviceType::kAccel);
      if (!acquired.ok()) {
        co_await sim::Delay(rack.loop(), 20 * kMicrosecond);
        continue;
      }
      ++stats.reacquires;
      lease = std::make_unique<Rack::Lease>(std::move(*acquired));
    }
    Status st = co_await lease->mmio->Write(0x10, ++seq);
    if (st.ok()) {
      ++stats.ops_ok;
      consecutive_failures = 0;
    } else {
      ++stats.ops_failed;
      if (++consecutive_failures >= 12) {  // ~60 µs of errors: give up
        (void)rack.orchestrator().Release(host, lease->assignment.device);
        lease.reset();
        consecutive_failures = 0;
      }
    }
    co_await sim::Delay(rack.loop(), 5 * kMicrosecond);
  }
}

struct RunResult {
  std::string digest;
  std::string mttr;
  std::map<std::string, std::string> mttr_by_class;
  uint64_t injections = 0;
  uint64_t recoveries = 0;
  uint64_t violations = 0;
  uint64_t executed = 0;
  uint64_t coherence_violations = 0;
  uint64_t coherence_events = 0;
  uint64_t lost_dirty_lines = 0;
  uint64_t poisoned_lines_remaining = 0;
  uint64_t dedup_hits = 0;
  uint64_t watchdog_misses = 0;
  uint64_t flr_resets = 0;
  uint64_t rpc_shed = 0;
  uint64_t rpc_expired = 0;
  uint64_t expired_at_device = 0;
  std::map<std::string, uint64_t> injections_by_class;
  uint64_t quarantines = 0;
  uint64_t quarantine_releases = 0;
  uint64_t quarantined_skips = 0;
  // Split-brain audit: device-side applies witnessed by the lease oracle
  // (zero epoch regressions allowed), total doorbell writes that landed on
  // any register file, and the fault plane's frame-level damage tally.
  uint64_t oracle_applies = 0;
  uint64_t oracle_violations = 0;
  uint64_t writes_applied = 0;
  // End-of-run values of the orch.*, fault_plane.* and scrub.* counters.
  std::map<std::string, uint64_t> counters;
  TrafficStats traffic;

  uint64_t counter(const std::string& name) const { return counters.at(name); }
};

uint64_t CounterValue(const obs::Registry& reg, const std::string& name,
                      const obs::Labels& labels = {}) {
  const obs::Counter* c = reg.FindCounter(name, labels);
  CXLPOOL_CHECK_MSG(c != nullptr, "no counter %s", name.c_str());
  return c->value();
}

// `obs` is the observability bundle for this run, or nullptr to run with
// every hook disabled — main() runs the same seed both ways and requires a
// bit-identical trace digest, which is the tracing-purity guarantee.
// `json_path` (optional) gets a BENCH_chaos_soak-style metrics snapshot.
// `fault_filter` empty = all classes; non-empty = only the named classes,
// AND the planner runs in storm mode (see --faults in the header comment).
RunResult RunSoak(uint64_t seed, Nanos soak, bool print,
                  obs::Observability* obs, const std::string& json_path = "",
                  const std::set<std::string>& fault_filter = {}) {
  const bool storm = !fault_filter.empty();
  auto enabled = [&fault_filter](const char* cls) {
    return fault_filter.empty() || fault_filter.count(cls) != 0;
  };
  const int64_t wall_start = obs::WallNanos();
  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 4;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.nics_per_host = 1;
  rc.orch.auto_rebalance = true;
  // Forwarded MMIO gets one retry with the same (client_id, seq): enough to
  // exercise the exactly-once dedup window without stretching every failed
  // doorbell to 4x the rpc timeout during outages.
  rc.orch.mmio_retry.max_attempts = 2;
  rc.obs = obs;
  Rack rack(loop, rc);

  // The coherence race detector shadows every pool line for the whole soak:
  // a fault storm must never induce a protocol violation in the control
  // plane's own CXL traffic (rings, doorbells, leases).
  analysis::CoherenceChecker checker;
  checker.AttachTo(rack.pod());

  // One doorbell accel per host, so failover always has somewhere to go.
  // In storm mode host 3's accel is homed on host 0 instead: h3 then drives
  // a FORWARDED path across the faulted fabric (including the asym-cut
  // h3->h0 direction), so the lease oracle witnesses real cross-host
  // applies under partition pressure rather than vacuous local MMIO.
  std::vector<std::unique_ptr<DoorbellDevice>> accels;
  for (int h = 0; h < 4; ++h) {
    int home = (storm && h == 3) ? 0 : h;
    auto dev = std::make_unique<DoorbellDevice>(PcieDeviceId(100 + h), loop);
    dev->AttachTo(&rack.pod().host(home));
    rack.orchestrator().RegisterDevice(HostId(home), dev.get(),
                                       DeviceType::kAccel);
    accels.push_back(std::move(dev));
  }
  rack.Start();

  // Replicated control-plane state under scrub: λ=2 copies on distinct
  // MHDs, published once, then swept by the background scrubber. The
  // poison-line fault below corrupts its media; the scrubber must detect
  // (kDataLoss on a fresh read) and repair from the healthy replica.
  constexpr uint64_t kRegionSize = 8 * kKiB;
  const obs::Labels kRegionLabels = {{"region", "control-plane"}};
  auto region_or = cxl::ReplicatedRegion::Create(
      rack.pod().pool(), kRegionSize, 2, obs::Scope(rack.pod().metrics(), kRegionLabels));
  CXLPOOL_CHECK_OK(region_or.status());
  cxl::ReplicatedRegion region = std::move(*region_or);
  std::vector<std::byte> region_content(kRegionSize);
  for (uint64_t i = 0; i < kRegionSize; ++i) {
    region_content[i] = static_cast<std::byte>((i * 131) & 0xff);
  }
  cxl::HostAdapter& host0 = rack.pod().host(0);
  CXLPOOL_CHECK_OK(sim::RunBlocking(loop, region.Publish(host0, 0, region_content)));
  Spawn(region.ScrubLoop(host0, 50 * kMicrosecond, rack.stop_token()));

  sim::ChaosInjector::Options copts;
  copts.seed = seed;
  if (storm) {
    // Storm schedule: dense injections, outages long enough to push hosts
    // into the orchestrator's suspect band (>300 µs report staleness) but
    // mostly short of quorum condemnation — the regime where fencing and
    // quorum liveness carry the whole split-brain burden.
    copts.mean_interval = 150 * kMicrosecond;
    copts.min_outage = 50 * kMicrosecond;
    copts.max_outage = 500 * kMicrosecond;
  } else {
    copts.mean_interval = 500 * kMicrosecond;
    copts.min_outage = 50 * kMicrosecond;
    // Long enough that some host crashes outlive the liveness timeout and
    // are declared dead (revocation + failover), while short ones ride it
    // out.
    copts.max_outage = 800 * kMicrosecond;
  }
  sim::ChaosInjector chaos(loop, copts);
  if (obs != nullptr) {
    // Mirror every executed fail/repair/recover line into the flight
    // recorder (ring 0 — chaos is rack-level, not per-host), so a failure
    // dump interleaves faults with the control plane's own events.
    cxl::HostAdapter* ring0 = &rack.pod().host(0);
    chaos.SetEventHook([ring0](const std::string& line) {
      ring0->FlightNote("chaos", "%s", line.c_str());
    });
  }

  cxl::CxlPod& pod = rack.pod();
  // Never crash host 0: it runs the orchestrator container (§4.2).
  if (enabled("host-crash")) {
    for (int h = 1; h < 4; ++h) {
      chaos.AddFault("host" + std::to_string(h), "host-crash",
                     [&pod, h] { pod.FailHost(HostId(h)); },
                     [&pod, h] { pod.RepairHost(HostId(h)); });
    }
  }
  if (enabled("link")) {
    chaos.AddFault("link-h1-m0", "link",
                   [&pod] { pod.FailLink(HostId(1), MhdId(0)); },
                   [&pod] { pod.RepairLink(HostId(1), MhdId(0)); });
    chaos.AddFault("link-h2-m1", "link",
                   [&pod] { pod.FailLink(HostId(2), MhdId(1)); },
                   [&pod] { pod.RepairLink(HostId(2), MhdId(1)); });
  }
  if (enabled("mhd")) {
    chaos.AddFault("mhd1", "mhd", [&pod] { pod.FailMhd(MhdId(1)); },
                   [&pod] { pod.RepairMhd(MhdId(1)); });
  }
  if (enabled("device-failstop")) {
    DoorbellDevice* accel1 = accels[1].get();
    chaos.AddFault("accel101", "device-failstop",
                   [accel1] { accel1->InjectFailure(); },
                   [accel1] { accel1->Repair(); });
  }
  // Gray failures. A wedge has NO chaos-side repair: the home agent's
  // watchdog must notice the MMIO deadline misses and FLR the device —
  // that reset, not the injector, is the repair path. (Wedge() on an
  // already-reset device is a fresh episode; on a crashed host the wedge
  // sits until the host reboots and its watchdog resumes.)
  if (enabled("wedge-device")) {
    for (int h = 2; h < 4; ++h) {
      DoorbellDevice* dev = accels[h].get();
      chaos.AddFault("wedge-accel" + std::to_string(100 + h), "wedge-device",
                     [dev] { dev->Wedge(); }, [] { /* watchdog FLRs it */ });
    }
  }
  // Overload: a slow-draining home agent (GC pause, noisy neighbor — the
  // host is alive but every forwarded op stalls in its handler). This is
  // the backpressure stack's fault class: admission control sheds the
  // data-plane backlog, deadline propagation kills dead doorbells before
  // the BAR, and control-priority probes/reports keep flowing — so the
  // watchdog must NOT mistake the slow agent for a wedged device.
  if (enabled("overload-drain")) {
    for (int h = 1; h < 3; ++h) {
      Agent* slow_agent = rack.orchestrator().agent(HostId(h));
      chaos.AddFault(
          "slow-agent" + std::to_string(h), "overload-drain",
          [slow_agent] { slow_agent->InjectSlowDrain(30 * kMicrosecond); },
          [slow_agent] { slow_agent->InjectSlowDrain(0); });
    }
  }
  // Poisoned media: each firing poisons a few 64B lines of one replica of
  // the scrubbed region (deterministic line choice — no RNG draws outside
  // the planner). Repair is the scrubber's job, so the chaos-side repair
  // is a no-op; the recovery probe below holds until the pool is clean.
  auto poison_counter = std::make_shared<uint64_t>(0);
  if (enabled("poison-line")) {
    chaos.AddFault(
        "poison-region", "poison-line",
        [&pod, &region, poison_counter] {
          uint64_t n = (*poison_counter)++;
          const cxl::PoolSegment& seg = region.segment(static_cast<int>(n % 2));
          uint64_t lines = kRegionSize / kCachelineSize;
          for (uint64_t i = 0; i < 3; ++i) {
            pod.PoisonLine(seg.base +
                           kCachelineSize * ((n * 37 + i * 11) % lines));
          }
        },
        [] { /* scrub repairs */ });
  }

  // --- Network fault plane classes (ISSUE 9) ---
  // These damage the message fabric itself (rings between hosts), not the
  // CXL media paths: the liveness/fencing machinery, not replication, is
  // what must hold the line here.
  netsim::FaultPlane& plane = pod.fault_plane();
  if (enabled("partition")) {
    // Full isolation of h1: every peer votes it unreachable, so a long
    // enough outage is condemned BY QUORUM — and fencing guarantees any
    // lease it held is epoch-bumped before re-grant.
    chaos.AddFault(
        "partition-h1", "partition",
        [&plane] {
          const HostId one[] = {HostId(1)};
          const HostId rest[] = {HostId(0), HostId(2), HostId(3)};
          plane.Partition(one, rest);
        },
        [&plane] {
          const HostId one[] = {HostId(1)};
          const HostId rest[] = {HostId(0), HostId(2), HostId(3)};
          plane.HealPartition(one, rest);
        });
    // Orchestrator-only partition: h2 loses its path to h0 (both ways) but
    // its peers still see it. Quorum must REFUSE to condemn — h2 rides it
    // out as a fenced suspect and recovers on heal. With probe-only
    // liveness this exact shape is the classic false-positive kill.
    chaos.AddFault(
        "partition-h2-orch", "partition",
        [&plane] {
          plane.Cut(HostId(2), HostId(0));
          plane.Cut(HostId(0), HostId(2));
        },
        [&plane] {
          plane.Heal(HostId(2), HostId(0));
          plane.Heal(HostId(0), HostId(2));
        });
  }
  if (enabled("asym_link")) {
    // One-way damage: h3's frames toward h0 vanish, h0's toward h3 arrive.
    // The orchestrator stops hearing reports (suspect), but h3's peers
    // still exchange probes with it, so quorum keeps it alive.
    chaos.AddFault(
        "asym-h3-to-h0", "asym_link",
        [&plane] { plane.Cut(HostId(3), HostId(0)); },
        [&plane] { plane.Heal(HostId(3), HostId(0)); });
  }
  if (enabled("lossy_link")) {
    // Both directions of h0<->h1 degrade: seeded drops, duplicates, and
    // delayed/reordered frames. RPC retries + the dedup window must absorb
    // all of it without double-applying a doorbell.
    chaos.AddFault(
        "lossy-h0-h1", "lossy_link",
        [&plane] {
          netsim::FaultPlane::LinkState lossy;
          lossy.drop_p = 0.15;
          lossy.dup_p = 0.10;
          lossy.delay_p = 0.20;
          lossy.delay_min = 5 * kMicrosecond;
          lossy.delay_max = 40 * kMicrosecond;
          plane.SetLossy(HostId(0), HostId(1), lossy);
          plane.SetLossy(HostId(1), HostId(0), lossy);
        },
        [&plane] {
          plane.Heal(HostId(0), HostId(1));
          plane.Heal(HostId(1), HostId(0));
        });
  }

  // The lease oracle shadows every device-side apply on every agent: an
  // apply under an epoch older than one already witnessed for that device
  // is a dual-ownership interval — the split-brain the fencing machinery
  // exists to make impossible. Wired in BOTH runs (pure bookkeeping; must
  // not perturb the digest).
  analysis::LeaseOracle oracle;
  for (int h = 0; h < 4; ++h) {
    Agent* a = rack.orchestrator().agent(HostId(h));
    a->SetApplyHook([&oracle](PcieDeviceId dev, uint64_t epoch,
                              uint64_t client_id, Nanos at) {
      oracle.RecordApply(dev, epoch, client_id, at);
    });
  }

  Orchestrator& orch = rack.orchestrator();
  // Both invariants are enforced synchronously by DeclareAgentDead, so any
  // violation is a real control-plane inconsistency, not detection lag.
  chaos.AddInvariant("no-lease-held-by-dead-host", [&orch]() -> std::string {
    for (const auto& [id, rec] : orch.devices()) {
      for (HostId lessee : rec.lessees) {
        if (!orch.agent_alive(lessee)) {
          return "device " + std::to_string(id.value()) +
                 " leased by dead host " + std::to_string(lessee.value());
        }
      }
    }
    return "";
  });
  chaos.AddInvariant("dead-home-implies-unhealthy", [&orch]() -> std::string {
    for (const auto& [id, rec] : orch.devices()) {
      if (rec.healthy && !orch.agent_alive(rec.home)) {
        return "device " + std::to_string(id.value()) +
               " healthy but home host " + std::to_string(rec.home.value()) +
               " is dead";
      }
    }
    return "";
  });
  // Recovered = the control plane has converged (no lease still points at
  // an unhealthy device or one homed on a crashed host), the pool media is
  // clean again (the scrubber repaired every poisoned line), AND the
  // never-crashed host can acquire an accelerator. For a host crash this
  // clears at repair or at liveness-sweep revocation, whichever is first;
  // for poison it clears when the scrub sweep lands its repairs.
  chaos.SetRecoveryProbe([&orch, &pod]() -> bool {
    for (const auto& [id, rec] : orch.devices()) {
      if ((!rec.healthy || pod.HostCrashed(rec.home)) && !rec.lessees.empty()) {
        return false;
      }
    }
    // A fenced suspect is not a recovered cluster: either the partition
    // heals (suspect -> alive) or quorum/TTL condemns it (suspect -> dead).
    if (orch.suspect_count() != 0) {
      return false;
    }
    if (pod.PoisonedLineCount() != 0) {
      return false;
    }
    auto a = orch.Acquire(HostId(0), DeviceType::kAccel);
    if (!a.ok()) {
      return false;
    }
    (void)orch.Release(HostId(0), a->device);
    return true;
  });

  chaos.ScheduleRandom(kMillisecond, soak);
  chaos.Start(rack.stop_token());

  TrafficStats traffic;
  std::array<std::unique_ptr<Rack::Lease>, 4> leases;
  // Paths replaced by migration are parked here, not destroyed: a Traffic
  // op may still be suspended inside the old path (its retry loop and RPC
  // client live in the path object), so freeing it mid-flight is a
  // use-after-free when that op resumes. Retired paths drain with the loop
  // and die at RunSoak exit.
  std::vector<std::unique_ptr<core::MmioPath>> retired_paths;
  for (int h = 1; h < 4; ++h) {
    // Orchestrator-driven migration rebinds the live lease in place.
    orch.agent(HostId(h))->SetMigrationHandler(
        [orch = &orch, leases = &leases, retired = &retired_paths, h](
            PcieDeviceId old_dev, PcieDeviceId new_dev,
            HostId new_home) -> Task<> {
          auto& lease = (*leases)[h];
          if (lease != nullptr && lease->assignment.device == old_dev) {
            auto path = orch->MakeMmioPath(HostId(h), new_dev);
            if (path.ok()) {
              lease->assignment.device = new_dev;
              lease->assignment.home = new_home;
              lease->assignment.local = new_home == HostId(h);
              retired->push_back(std::move(lease->mmio));
              lease->mmio = std::move(*path);
            }
          }
          co_return;
        });
    Spawn(Traffic(rack, HostId(h), leases[h], traffic, rack.stop_token()));
  }

  loop.RunUntil(soak + 5 * kMillisecond);  // soak + settle tail
  rack.Shutdown();
  loop.RunFor(kMillisecond);

  RunResult r;
  r.digest = chaos.TraceDigest();
  r.mttr = chaos.mttr().PercentileString();
  for (const auto& [cls, hist] : chaos.mttr_by_class()) {
    r.mttr_by_class[cls] = hist.PercentileString();
  }
  r.injections = chaos.injections();
  r.recoveries = chaos.recoveries();
  r.violations = chaos.violations();
  r.executed = loop.executed();
  r.coherence_violations = checker.violation_count();
  r.coherence_events = checker.events_seen();
  r.lost_dirty_lines = rack.pod().TotalLostDirtyLines();
  r.poisoned_lines_remaining = rack.pod().PoisonedLineCount();
  const obs::Registry& metrics = rack.pod().metrics();
  for (int h = 0; h < 4; ++h) {
    obs::Labels host = {{"host", std::to_string(h)}};
    r.dedup_hits += CounterValue(metrics, "agent.dedup_hits", host);
    r.watchdog_misses += CounterValue(metrics, "agent.watchdog_misses", host);
    r.flr_resets += CounterValue(metrics, "agent.flr_resets", host);
    r.expired_at_device += CounterValue(metrics, "agent.expired_at_device", host);
    r.rpc_shed += CounterValue(metrics, "agent.rpc_shed", host);
    r.rpc_expired += CounterValue(metrics, "agent.rpc_expired", host);
  }
  r.injections_by_class = chaos.injections_by_class();
  for (const char* name :
       {"orch.failovers", "orch.rebalances", "orch.host_deaths",
        "orch.host_reregistrations", "orch.leases_revoked",
        "orch.abandoned_migrations", "orch.suspects", "orch.suspect_recoveries",
        "orch.condemned_by_quorum", "orch.condemned_by_ttl", "orch.fences_acked",
        "orch.fences_ttl_expired", "fault_plane.frames_dropped",
        "fault_plane.frames_duplicated", "fault_plane.frames_delayed"}) {
    r.counters[name] = CounterValue(metrics, name);
  }
  for (const char* name :
       {"scrub.lines_scrubbed", "scrub.repairs", "scrub.unrecoverable"}) {
    r.counters[name] = CounterValue(metrics, name, kRegionLabels);
  }
  r.oracle_applies = oracle.applies();
  r.oracle_violations = oracle.violations();
  for (const auto& dev : accels) {
    r.writes_applied += dev->writes_applied;
  }
  r.quarantines = CounterValue(metrics, "orch.quarantines");
  r.quarantine_releases = CounterValue(metrics, "orch.quarantine_releases");
  r.quarantined_skips = CounterValue(metrics, "orch.quarantined_skips");
  r.traffic = traffic;

  if (!json_path.empty() && obs != nullptr) {
    // Fold the soak-level results into the registry so the snapshot is one
    // self-contained document (registry metrics + chaos outcome). The
    // oracles keep their own counts; their final values are copied in here.
    obs::Registry& reg = obs->metrics();
    checker.ExportCounts(reg);
    reg.GetCounter("lease_oracle.applies")->Add(r.oracle_applies);
    reg.GetCounter("lease_oracle.violations")->Add(r.oracle_violations);
    reg.GetCounter("chaos.injections")->Add(r.injections);
    reg.GetCounter("chaos.recoveries")->Add(r.recoveries);
    reg.GetCounter("chaos.violations")->Add(r.violations);
    reg.GetHistogram("chaos.mttr_ns")->MergeFrom(chaos.mttr());
    for (const auto& [cls, hist] : chaos.mttr_by_class()) {
      reg.GetHistogram("chaos.mttr_ns", {{"class", cls}})->MergeFrom(hist);
    }
    reg.GetCounter("traffic.ops_ok")->Add(r.traffic.ops_ok);
    reg.GetCounter("traffic.ops_failed")->Add(r.traffic.ops_failed);
    reg.GetCounter("traffic.reacquires")->Add(r.traffic.reacquires);
    CXLPOOL_CHECK_OK(obs::WriteBenchJson(
        json_path, "chaos_soak",
        {.sim_ns = loop.now(), .events = loop.executed(),
         .wall_ns = obs::WallNanos() - wall_start},
        reg));
    if (print) {
      std::printf("metrics snapshot:  %s (%zu series)\n", json_path.c_str(),
                  reg.series_count());
    }
  }

  if (print) {
    std::printf("faults injected:   %llu (%zu planned)\n",
                (unsigned long long)r.injections, chaos.plan().size());
    std::printf("recoveries:        %llu\n", (unsigned long long)r.recoveries);
    std::printf("invariant/liveness violations: %llu\n",
                (unsigned long long)r.violations);
    for (const std::string& v : chaos.violation_log()) {
      std::printf("  VIOLATION %s\n", v.c_str());
    }
    std::printf("MTTR (ns):         %s\n", r.mttr.c_str());
    for (const auto& [cls, pct] : r.mttr_by_class) {
      std::printf("  MTTR[%-15s] %s\n", cls.c_str(), pct.c_str());
    }
    std::printf("doorbell ops:      %llu ok, %llu failed, %llu re-acquires, "
                "%llu device applies\n",
                (unsigned long long)r.traffic.ops_ok,
                (unsigned long long)r.traffic.ops_failed,
                (unsigned long long)r.traffic.reacquires,
                (unsigned long long)r.writes_applied);
    std::printf("orchestrator:      %llu failovers, %llu rebalances, "
                "%llu host deaths, %llu re-registrations\n",
                (unsigned long long)r.counter("orch.failovers"),
                (unsigned long long)r.counter("orch.rebalances"),
                (unsigned long long)r.counter("orch.host_deaths"),
                (unsigned long long)r.counter("orch.host_reregistrations"));
    std::printf("                   %llu leases revoked, %llu abandoned "
                "migrations\n",
                (unsigned long long)r.counter("orch.leases_revoked"),
                (unsigned long long)r.counter("orch.abandoned_migrations"));
    std::printf("liveness:          %llu suspects, %llu recovered, "
                "%llu condemned by quorum, %llu by TTL\n",
                (unsigned long long)r.counter("orch.suspects"),
                (unsigned long long)r.counter("orch.suspect_recoveries"),
                (unsigned long long)r.counter("orch.condemned_by_quorum"),
                (unsigned long long)r.counter("orch.condemned_by_ttl"));
    std::printf("fencing:           %llu fences acked, %llu resolved by "
                "lease-TTL expiry\n",
                (unsigned long long)r.counter("orch.fences_acked"),
                (unsigned long long)r.counter("orch.fences_ttl_expired"));
    std::printf("fault plane:       %llu frames dropped, %llu duplicated, "
                "%llu delayed\n",
                (unsigned long long)r.counter("fault_plane.frames_dropped"),
                (unsigned long long)r.counter("fault_plane.frames_duplicated"),
                (unsigned long long)r.counter("fault_plane.frames_delayed"));
    std::printf("lease oracle:      %llu applies witnessed, %llu epoch "
                "regressions (dual-ownership intervals)\n",
                (unsigned long long)r.oracle_applies,
                (unsigned long long)r.oracle_violations);
    std::printf("quarantine:        %llu entered, %llu released, %llu "
                "allocation skips\n",
                (unsigned long long)r.quarantines,
                (unsigned long long)r.quarantine_releases,
                (unsigned long long)r.quarantined_skips);
    std::printf("gray failures:     %llu watchdog misses, %llu FLR resets, "
                "%llu dedup hits\n",
                (unsigned long long)r.watchdog_misses,
                (unsigned long long)r.flr_resets,
                (unsigned long long)r.dedup_hits);
    std::printf("overload:          %llu admission sheds, %llu expired at "
                "dequeue, %llu expired pre-BAR\n",
                (unsigned long long)r.rpc_shed,
                (unsigned long long)r.rpc_expired,
                (unsigned long long)r.expired_at_device);
    std::printf("scrubber:          %llu lines swept, %llu repairs, %llu "
                "unrecoverable, %llu poisoned lines left\n",
                (unsigned long long)r.counter("scrub.lines_scrubbed"),
                (unsigned long long)r.counter("scrub.repairs"),
                (unsigned long long)r.counter("scrub.unrecoverable"),
                (unsigned long long)r.poisoned_lines_remaining);
    std::printf("lost dirty lines:  %llu\n",
                (unsigned long long)r.lost_dirty_lines);
    std::printf("coherence:         %s\n", checker.Report().c_str());
    for (const auto& v : checker.violations()) {
      std::printf("  COHERENCE %s\n", v.ToString().c_str());
    }
    std::printf("trace digest:      %s\n", r.digest.c_str());
    if (obs != nullptr) {
      std::printf("flight recorder:   %llu events recorded (%llu overwritten) "
                  "across %zu rings\n",
                  (unsigned long long)obs->flight().recorded(),
                  (unsigned long long)obs->flight().overwritten(),
                  obs->flight().host_count());
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path;
  std::set<std::string> fault_filter;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      std::string list = argv[i] + 9;
      size_t pos = 0;
      while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) {
          comma = list.size();
        }
        if (comma > pos) {
          fault_filter.insert(list.substr(pos, comma - pos));
        }
        pos = comma + 1;
      }
    }
  }
  const bool storm = !fault_filter.empty();
  // The short mode is the CI gate: same faults, same seed, same
  // assertions, reduced horizon.
  const Nanos soak = short_mode ? 8 * kMillisecond : 30 * kMillisecond;
  if (storm) {
    std::string classes;
    for (const std::string& c : fault_filter) {
      classes += (classes.empty() ? "" : ",") + c;
    }
    std::printf("=== chaos soak STORM: %s%s ===\n\n", classes.c_str(),
                short_mode ? " (short)" : "");
  } else {
    std::printf("=== chaos soak: crash/link/MHD/fail-stop/wedge/poison faults "
                "vs the control plane%s ===\n\n",
                short_mode ? " (short)" : "");
  }
  constexpr uint64_t kSeed = 0xC0FFEE;
  // First run: full observability — tracing, registry metrics, and the
  // flight recorder wired to CHECK failures (so any assertion below dumps
  // the last operations of every host).
  obs::Observability obs;
  obs.InstallCheckHook();
  RunResult first =
      RunSoak(kSeed, soak, /*print=*/true, &obs, json_path, fault_filter);

  // Second run: same seed, all observability off. Identical digests prove
  // both reproducibility and tracing purity — the instrumented run made
  // exactly the simulation decisions the bare run did.
  std::printf("\nre-running the identical seed with observability off...\n");
  RunResult second =
      RunSoak(kSeed, soak, /*print=*/false, /*obs=*/nullptr, "", fault_filter);
  CXLPOOL_CHECK(first.digest == second.digest);
  CXLPOOL_CHECK(first.executed == second.executed);
  CXLPOOL_CHECK(first.traffic.ops_ok == second.traffic.ops_ok);
  std::printf("reproducibility:   OK — identical trace digest and event count "
              "(%llu events) with tracing on and off\n",
              (unsigned long long)first.executed);
  CXLPOOL_CHECK(first.violations == 0);
  // The overload fault class must actually have fired — a soak that never
  // stalled an agent proves nothing about the backpressure stack.
  if (fault_filter.empty() || fault_filter.count("overload-drain") != 0) {
    CXLPOOL_CHECK(first.injections_by_class.count("overload-drain") == 1);
  }
  // Filtered runs: every requested class must have actually fired, and the
  // storm must be dense enough to mean something (>= 50 injections on the
  // full horizon).
  if (storm) {
    for (const std::string& cls : fault_filter) {
      CXLPOOL_CHECK(first.injections_by_class.count(cls) == 1);
    }
    if (!short_mode) {
      CXLPOOL_CHECK(first.injections >= 50);
    }
  }
  // The fault storm must not have tricked any host into breaking the
  // publish/consume protocol or silently destroying unpublished bytes.
  CXLPOOL_CHECK(first.coherence_violations == 0);
  CXLPOOL_CHECK(second.coherence_violations == 0);
  CXLPOOL_CHECK(first.lost_dirty_lines == 0);
  std::printf("coherence check:   OK — zero violations over %llu line events\n",
              (unsigned long long)first.coherence_events);
  // Split-brain: the lease oracle must have witnessed ZERO dual-ownership
  // intervals (epoch regressions at any device) in BOTH runs.
  CXLPOOL_CHECK(first.oracle_violations == 0);
  CXLPOOL_CHECK(second.oracle_violations == 0);
  // Lost-acked-write accounting: the register files must hold at least as
  // many applies as the clients saw acknowledged (a dedup-absorbed retry
  // acks an op that already applied, so applies >= acks). This is an
  // invariant of NETWORK faults only — MMIO writes are posted, so a
  // device that wedges/fail-stops (or a host that crashes) inside the
  // posting window absorbs an acked write by design; that gray loss is
  // the watchdog/FLR story, not a fabric bug. Enforced whenever the storm
  // is restricted to fault-plane classes.
  const bool network_only = storm && [&fault_filter] {
    for (const std::string& c : fault_filter) {
      if (c != "partition" && c != "asym_link" && c != "lossy_link") {
        return false;
      }
    }
    return true;
  }();
  if (network_only) {
    CXLPOOL_CHECK(first.writes_applied >= first.traffic.ops_ok);
    CXLPOOL_CHECK(second.writes_applied >= second.traffic.ops_ok);
  }
  std::printf("split-brain check: OK — zero dual-ownership intervals over "
              "%llu witnessed applies%s\n",
              (unsigned long long)first.oracle_applies,
              network_only ? ", zero lost acked writes" : "");
  // Media RAS: every poisoned line must have been repaired from a healthy
  // replica — none left behind, none written off as unrecoverable.
  CXLPOOL_CHECK(first.counter("scrub.unrecoverable") == 0);
  CXLPOOL_CHECK(first.poisoned_lines_remaining == 0);
  std::printf("scrub check:       OK — %llu repairs, zero unrecoverable, "
              "media clean\n",
              (unsigned long long)first.counter("scrub.repairs"));
  return 0;
}
