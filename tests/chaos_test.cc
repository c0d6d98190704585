// Robustness tests for the host-crash fault model: liveness-driven death
// declaration, lease revocation + failover, epoch fencing of stale MMIO
// paths, and bit-for-bit reproducibility of a seeded chaos scenario.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/sim/chaos.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::core {
namespace {

using sim::RunBlocking;
using sim::Spawn;
using sim::Task;

// A register-file device for MMIO path tests.
class DummyDevice : public pcie::PcieDevice {
 public:
  DummyDevice(PcieDeviceId id, sim::EventLoop& loop)
      : PcieDevice(id, "dummy", loop, cxl::LinkSpec{}, pcie::PcieTiming{}) {}

  std::map<uint64_t, uint64_t> regs;

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override { regs[reg] = value; }
  uint64_t OnMmioRead(uint64_t reg) override { return regs[reg]; }
};

Task<Status> WriteReg(MmioPath& path, uint64_t value) {
  co_return co_await path.Write(0x10, value);
}

// End-state fingerprint: chaos trace digest + orchestrator counters +
// full lease layout + the loop's executed-event count. Any cross-run
// divergence in timing, ordering, or outcome changes it.
std::string Fingerprint(const sim::ChaosInjector& chaos, Rack& rack,
                        const sim::EventLoop& loop) {
  const Orchestrator& orch = rack.orchestrator();
  std::string fp = chaos.TraceDigest();
  for (const char* field : {"acquires", "failovers", "host_deaths",
                            "host_reregistrations", "leases_revoked",
                            "abandoned_migrations"}) {
    fp += std::string(" ") + field + "=" +
          std::to_string(CounterValue(rack.pod().metrics(), std::string("orch.") + field));
  }
  for (const auto& [id, rec] : orch.devices()) {
    fp += " d" + std::to_string(id.value()) + "=[";
    for (HostId lessee : rec.lessees) {
      fp += std::to_string(lessee.value()) + ",";
    }
    fp += "]e" + std::to_string(rec.epoch) + (rec.healthy ? "h" : "u");
  }
  fp += " events=" + std::to_string(loop.executed());
  return fp;
}

// The acceptance scenario: host 1 crashes mid-traffic on a seeded chaos
// schedule. Within liveness_timeout + rebalance_interval the orchestrator
// must declare it dead, revoke its leases, fail over leases on its home
// devices, and keep serving Acquires; repair must re-register it cleanly.
// Returns the run fingerprint so the caller can assert reproducibility.
std::string RunHostCrashScenario() {
  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 4;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 32 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.nics_per_host = 1;
  rc.orchestrator_home = 2;  // the orchestrator host never crashes here
  // Short forwarded-path deadline so a write into the crash window times
  // out before the 3 ms repair instead of racing the server restart.
  rc.orch.rpc_timeout = 300 * kMicrosecond;
  Rack rack(loop, rc);

  DummyDevice accel_on_crashed(PcieDeviceId(50), loop);
  accel_on_crashed.AttachTo(&rack.pod().host(1));
  DummyDevice accel_survivor(PcieDeviceId(51), loop);
  accel_survivor.AttachTo(&rack.pod().host(3));
  Orchestrator& orch = rack.orchestrator();
  orch.RegisterDevice(HostId(1), &accel_on_crashed, DeviceType::kAccel,
                      [] { return 0.0; });
  orch.RegisterDevice(HostId(3), &accel_survivor, DeviceType::kAccel,
                      [] { return 0.1; });
  rack.Start();

  // Pre-crash leases: host 2 holds the accel homed on host 1 (forwarded
  // MMIO path), host 1 holds its own NIC.
  auto accel = orch.Acquire(HostId(2), DeviceType::kAccel);
  CXLPOOL_CHECK(accel.ok());
  CXLPOOL_CHECK(accel->device == PcieDeviceId(50));
  auto path = orch.MakeMmioPath(HostId(2), PcieDeviceId(50));
  CXLPOOL_CHECK(path.ok());
  auto nic = orch.Acquire(HostId(1), DeviceType::kNic);
  CXLPOOL_CHECK(nic.ok());
  const PcieDeviceId nic_of_crashed = nic->device;
  CXLPOOL_CHECK_OK(RunBlocking(loop, WriteReg(**path, 1)));
  EXPECT_EQ(accel_on_crashed.regs[0x10], 1u);

  cxl::CxlPod& pod = rack.pod();
  sim::ChaosInjector::Options copts;
  copts.seed = 7;
  sim::ChaosInjector chaos(loop, copts);
  chaos.AddFault("host1-crash", [&pod] { pod.FailHost(HostId(1)); },
                 [&pod] { pod.RepairHost(HostId(1)); });
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
               " healthy but home host is dead";
      }
    }
    return "";
  });
  chaos.SetRecoveryProbe([&orch, &pod]() -> bool {
    for (const auto& [id, rec] : orch.devices()) {
      if ((!rec.healthy || pod.HostCrashed(rec.home)) && !rec.lessees.empty()) {
        return false;
      }
    }
    auto a = orch.Acquire(HostId(0), DeviceType::kNic);
    if (!a.ok()) {
      return false;
    }
    (void)orch.Release(HostId(0), a->device);
    return true;
  });
  chaos.ScheduleFail(kMillisecond, 0, 2 * kMillisecond);  // repair at 3 ms
  chaos.Start(rack.stop_token());

  // Crash at 1 ms; liveness_timeout (300 µs) + sweep period + failover RPCs
  // all fit well inside the 600 µs budget checked here.
  loop.RunUntil(kMillisecond + 600 * kMicrosecond);
  EXPECT_FALSE(orch.agent_alive(HostId(1)));
  EXPECT_EQ(CounterValue(rack.pod().metrics(), "orch.host_deaths"), 1u);

  // Home devices of the dead host are unhealthy; the accel lease failed
  // over to the survivor and the epoch advanced past the old path's.
  const Orchestrator::DeviceRecord* crashed_rec =
      orch.record(PcieDeviceId(50));
  CXLPOOL_CHECK(crashed_rec != nullptr);
  EXPECT_FALSE(crashed_rec->healthy);
  EXPECT_TRUE(crashed_rec->lessees.empty());
  EXPECT_EQ(crashed_rec->epoch, 1u);
  const Orchestrator::DeviceRecord* survivor_rec =
      orch.record(PcieDeviceId(51));
  CXLPOOL_CHECK(survivor_rec != nullptr);
  CXLPOOL_CHECK(survivor_rec->lessees.size() == 1);
  EXPECT_EQ(survivor_rec->lessees[0], HostId(2));
  EXPECT_GE(CounterValue(rack.pod().metrics(), "orch.failovers"), 1u);

  // The dead host's own NIC lease was revoked...
  const Orchestrator::DeviceRecord* nic_rec = orch.record(nic_of_crashed);
  CXLPOOL_CHECK(nic_rec != nullptr);
  EXPECT_TRUE(nic_rec->lessees.empty());
  EXPECT_GE(CounterValue(rack.pod().metrics(), "orch.leases_revoked"), 1u);
  // ...and it cannot acquire anything while dead.
  EXPECT_EQ(orch.Acquire(HostId(1), DeviceType::kNic).status().code(),
            StatusCode::kFailedPrecondition);
  // Live hosts keep being served.
  auto live = orch.Acquire(HostId(0), DeviceType::kAccel);
  CXLPOOL_CHECK(live.ok());
  EXPECT_EQ(live->device, PcieDeviceId(51));
  CXLPOOL_CHECK_OK(orch.Release(HostId(0), live->device));
  // A write on the pre-crash forwarded path cannot silently succeed while
  // its home host is down.
  EXPECT_FALSE(RunBlocking(loop, WriteReg(**path, 2)).ok());

  // Repair fires at 3 ms; the next report re-registers the host and
  // resyncs device epochs to its agent.
  loop.RunUntil(4500 * kMicrosecond);
  EXPECT_TRUE(orch.agent_alive(HostId(1)));
  EXPECT_EQ(CounterValue(rack.pod().metrics(), "orch.host_reregistrations"), 1u);
  EXPECT_TRUE(orch.record(PcieDeviceId(50))->healthy);
  EXPECT_TRUE(orch.record(nic_of_crashed)->healthy);
  EXPECT_EQ(orch.agent(HostId(1))->device_epoch(PcieDeviceId(50)), 1u);
  // The stale path is now fenced by the epoch bump, not just unreachable.
  EXPECT_EQ(RunBlocking(loop, WriteReg(**path, 3)).code(),
            StatusCode::kAborted);
  EXPECT_GE(CounterValue(rack.pod().metrics(), "agent.stale_epoch_rejects", HostLabels(1)), 1u);
  // The re-registered host is a full citizen again.
  auto back = orch.Acquire(HostId(1), DeviceType::kNic);
  EXPECT_TRUE(back.ok());

  EXPECT_EQ(chaos.injections(), 1u);
  EXPECT_EQ(chaos.recoveries(), 1u);
  EXPECT_EQ(chaos.violations(), 0u);
  EXPECT_GT(chaos.mttr().max(), 0);

  std::string fp = Fingerprint(chaos, rack, loop);
  rack.Shutdown();
  loop.RunFor(200 * kMicrosecond);
  return fp;
}

TEST(ChaosTest, HostCrashFailoverWithinBudgetAndDeterministic) {
  std::string first = RunHostCrashScenario();
  std::string second = RunHostCrashScenario();
  EXPECT_FALSE(first.empty());
  // Bit-for-bit reproducibility: same seed, same trace, same end state,
  // same number of executed events.
  EXPECT_EQ(first, second);
}

// A lease migrated away by rebalancing bumps the device epoch when the
// device drains, so an MMIO path built under the old lease is rejected
// with kAborted at the home agent instead of touching the device.
TEST(ChaosTest, StaleMmioPathAbortsAfterRebalance) {
  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 3;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 32 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.nics_per_host = 1;
  Rack rack(loop, rc);

  DummyDevice hot(PcieDeviceId(60), loop);
  hot.AttachTo(&rack.pod().host(1));
  DummyDevice cold(PcieDeviceId(61), loop);
  cold.AttachTo(&rack.pod().host(2));
  Orchestrator& orch = rack.orchestrator();
  orch.RegisterDevice(HostId(1), &hot, DeviceType::kAccel, [] { return 0.9; });
  orch.RegisterDevice(HostId(2), &cold, DeviceType::kAccel, [] { return 0.1; });
  rack.Start();

  // Acquire before any report lands: both utilizations read 0, so host 0
  // gets the lower-numbered (soon to be hot) device.
  auto lease = orch.Acquire(HostId(0), DeviceType::kAccel);
  ASSERT_TRUE(lease.ok());
  ASSERT_EQ(lease->device, PcieDeviceId(60));
  auto path = orch.MakeMmioPath(HostId(0), PcieDeviceId(60));
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE((*path)->is_remote());
  EXPECT_TRUE(RunBlocking(loop, WriteReg(**path, 1)).ok());

  // Reports land (hot=0.9 > overload threshold, cold=0.1); a rebalance
  // scan drains the hot device's single lease to the cold one.
  loop.RunFor(100 * kMicrosecond);
  RunBlocking(loop, orch.RebalanceOnce());
  loop.RunFor(100 * kMicrosecond);
  EXPECT_EQ(CounterValue(rack.pod().metrics(), "orch.rebalances"), 1u);
  EXPECT_TRUE(orch.record(PcieDeviceId(60))->lessees.empty());
  ASSERT_EQ(orch.record(PcieDeviceId(61))->lessees.size(), 1u);
  EXPECT_EQ(orch.record(PcieDeviceId(61))->lessees[0], HostId(0));

  // The drain bumped the epoch and pushed it to the (alive) home agent.
  EXPECT_EQ(orch.record(PcieDeviceId(60))->epoch, 1u);
  EXPECT_EQ(orch.agent(HostId(1))->device_epoch(PcieDeviceId(60)), 1u);

  // The old path carries epoch 0: fenced off at the home agent.
  EXPECT_EQ(RunBlocking(loop, WriteReg(**path, 2)).code(),
            StatusCode::kAborted);
  EXPECT_GE(CounterValue(rack.pod().metrics(), "agent.stale_epoch_rejects", HostLabels(1)), 1u);
  EXPECT_EQ(hot.regs[0x10], 1u);  // the fenced write never landed

  // A path built under the new lease works.
  auto fresh = orch.MakeMmioPath(HostId(0), PcieDeviceId(61));
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(RunBlocking(loop, WriteReg(**fresh, 7)).ok());
  EXPECT_EQ(cold.regs[0x10], 7u);

  rack.Shutdown();
  loop.RunFor(200 * kMicrosecond);
}

}  // namespace
}  // namespace cxlpool::core
