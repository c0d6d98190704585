// Robustness tests for network partitions and split-brain-safe leases:
// quorum-aware liveness keeps a partitioned-but-alive leaseholder alive
// until its lease TTL provably lapses, full isolation is condemned by peer
// quorum, unackable fences resolve only by lease-TTL expiry, agents
// self-fence on orchestrator-only isolation, and every re-issue path bumps
// the epoch before the device is grantable.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/netsim/fault_plane.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::core {
namespace {

using sim::RunBlocking;
using sim::Task;

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

// Shared topology: 4 hosts, orchestrator on host 0, one accel homed on
// `accel_home`, leased by `user` over a forwarded MMIO path.
struct PartitionRig {
  sim::EventLoop loop;
  std::unique_ptr<Rack> rack;
  std::unique_ptr<DummyDevice> accel;
  std::unique_ptr<MmioPath> path;

  PartitionRig(int accel_home, int user) {
    RackConfig rc;
    rc.pod.num_hosts = 4;
    rc.pod.num_mhds = 2;
    rc.pod.mhd_capacity = 32 * kMiB;
    rc.pod.dram_per_host = 16 * kMiB;
    rc.nics_per_host = 1;
    rc.orch.rpc_timeout = 300 * kMicrosecond;
    rack = std::make_unique<Rack>(loop, rc);
    accel = std::make_unique<DummyDevice>(PcieDeviceId(60), loop);
    accel->AttachTo(&rack->pod().host(accel_home));
    rack->orchestrator().RegisterDevice(HostId(accel_home), accel.get(),
                                        DeviceType::kAccel);
    rack->Start();

    auto a = rack->orchestrator().Acquire(HostId(user), DeviceType::kAccel);
    CXLPOOL_CHECK(a.ok());
    CXLPOOL_CHECK(a->device == PcieDeviceId(60));
    auto p = rack->orchestrator().MakeMmioPath(HostId(user), PcieDeviceId(60));
    CXLPOOL_CHECK(p.ok());
    path = std::move(*p);
    // Let reports and peer probes settle before any fault.
    loop.RunFor(200 * kMicrosecond);
  }

  ~PartitionRig() {
    rack->Shutdown();
    loop.RunFor(kMillisecond);
  }

  Orchestrator& orch() { return rack->orchestrator(); }
  uint64_t OrchCount(const std::string& field) {
    return CounterValue(rack->pod().metrics(), "orch." + field);
  }
  uint64_t AgentCount(uint32_t host, const std::string& field) {
    return CounterValue(rack->pod().metrics(), "agent." + field, HostLabels(host));
  }
  netsim::FaultPlane& plane() { return rack->pod().fault_plane(); }
};

// The acceptance scenario: host 1 holds a lease (device homed on host 2)
// and keeps WORKING, but loses both directions of its path to the
// orchestrator host. Report staleness alone would declare it dead at
// liveness_timeout; quorum liveness must hold it as a fenced suspect —
// its peers still reach it, so condemnation never gets the votes — and
// the leaseholder is never overtaken early.
TEST(PartitionTest, QuorumKeepsPartitionedLeaseholderAlive) {
  PartitionRig rig(/*accel_home=*/2, /*user=*/1);
  CXLPOOL_CHECK_OK(RunBlocking(rig.loop, WriteReg(*rig.path, 1)));
  EXPECT_EQ(rig.accel->regs[0x10], 1u);

  rig.plane().Cut(HostId(1), HostId(0));
  rig.plane().Cut(HostId(0), HostId(1));
  // Far beyond liveness_timeout (300 us), short of lease_ttl+fence_margin
  // (1.3 ms) so the TTL condemnation path stays out of the picture.
  uint64_t v = 1;
  for (int i = 0; i < 10; ++i) {
    rig.loop.RunFor(100 * kMicrosecond);
    // The partitioned host keeps driving its device: the h1->h2 forwarded
    // path never touches the cut edges.
    CXLPOOL_CHECK_OK(RunBlocking(rig.loop, WriteReg(*rig.path, ++v)));
  }
  EXPECT_EQ(rig.accel->regs[0x10], v);

  EXPECT_EQ(rig.OrchCount("host_deaths"), 0u);
  EXPECT_GE(rig.OrchCount("suspects"), 1u);
  EXPECT_EQ(rig.OrchCount("condemned_by_quorum"), 0u);
  EXPECT_EQ(rig.OrchCount("condemned_by_ttl"), 0u);
  EXPECT_TRUE(rig.orch().agent_alive(HostId(1)));
  EXPECT_GE(rig.orch().suspect_count(), 1u);
  // The lease was never revoked out from under the living holder.
  ASSERT_EQ(rig.orch().devices().at(PcieDeviceId(60)).lessees.size(), 1u);
  EXPECT_EQ(rig.orch().devices().at(PcieDeviceId(60)).lessees[0], HostId(1));
  // A suspect is fenced from NEW grants while in limbo.
  EXPECT_FALSE(rig.orch().Acquire(HostId(1), DeviceType::kNic).ok());

  rig.plane().Heal(HostId(1), HostId(0));
  rig.plane().Heal(HostId(0), HostId(1));
  rig.loop.RunFor(500 * kMicrosecond);
  EXPECT_GE(rig.OrchCount("suspect_recoveries"), 1u);
  EXPECT_EQ(rig.orch().suspect_count(), 0u);
  EXPECT_EQ(rig.OrchCount("host_deaths"), 0u);
  CXLPOOL_CHECK_OK(RunBlocking(rig.loop, WriteReg(*rig.path, ++v)));
  EXPECT_EQ(rig.accel->regs[0x10], v);
}

// The same partition held past lease_ttl + fence_margin (1.3 ms): the
// living host's peers still reach it, so quorum never condemns it, but its
// lease TTL does — by then its agent has provably self-fenced. The fencing
// machinery holds the split-brain line: the old holder's path is
// epoch-fenced at the home agent BEFORE the device is ever re-granted.
TEST(PartitionTest, LivingLesseeCondemnedByLeaseTtl) {
  PartitionRig rig(/*accel_home=*/2, /*user=*/1);
  CXLPOOL_CHECK_OK(RunBlocking(rig.loop, WriteReg(*rig.path, 1)));

  rig.plane().Cut(HostId(1), HostId(0));
  rig.plane().Cut(HostId(0), HostId(1));
  rig.loop.RunFor(2 * kMillisecond);

  EXPECT_GE(rig.OrchCount("host_deaths"), 1u);  // h1 is alive and working
  EXPECT_EQ(rig.OrchCount("condemned_by_ttl"), 1u);
  EXPECT_EQ(rig.OrchCount("condemned_by_quorum"), 0u);
  EXPECT_FALSE(rig.orch().agent_alive(HostId(1)));
  EXPECT_GE(rig.OrchCount("fences_acked"), 1u);  // home agent (h2, reachable) acked the bump
  EXPECT_GE(rig.orch().devices().at(PcieDeviceId(60)).epoch, 1u);
  // The revoked holder's writes are dead at the home agent — no dual
  // ownership once the lease is handed on.
  Status st = RunBlocking(rig.loop, WriteReg(*rig.path, 99));
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_GE(rig.AgentCount(2, "stale_epoch_rejects"), 1u);
  // Re-grant is safe: the fence was acked first.
  auto regrant = rig.orch().Acquire(HostId(3), DeviceType::kAccel);
  ASSERT_TRUE(regrant.ok());
  EXPECT_EQ(regrant->device, PcieDeviceId(60));
}

// Full isolation: every peer loses the host, so quorum condemns it. Its
// home device cannot be fenced by ack (the fence push can't reach it), so
// the fence resolves only when the old lease TTL has provably expired —
// and re-registration resyncs the bumped epoch so the pre-partition path
// is rejected at the (now healed) home agent.
TEST(PartitionTest, FullPartitionCondemnedByQuorumThenFencedByTtl) {
  PartitionRig rig(/*accel_home=*/1, /*user=*/3);
  CXLPOOL_CHECK_OK(RunBlocking(rig.loop, WriteReg(*rig.path, 1)));

  const HostId one[] = {HostId(1)};
  const HostId rest[] = {HostId(0), HostId(2), HostId(3)};
  rig.plane().Partition(one, rest);
  rig.loop.RunFor(800 * kMicrosecond);

  EXPECT_EQ(rig.OrchCount("host_deaths"), 1u);
  EXPECT_GE(rig.OrchCount("suspects"), 1u);
  EXPECT_EQ(rig.OrchCount("condemned_by_quorum"), 1u);
  EXPECT_FALSE(rig.orch().agent_alive(HostId(1)));
  EXPECT_GE(rig.orch().devices().at(PcieDeviceId(60)).epoch, 1u);
  // Fence unresolved (home unreachable): the device must not be granted.
  EXPECT_EQ(rig.OrchCount("fences_acked"), 0u);
  EXPECT_FALSE(rig.orch().Acquire(HostId(2), DeviceType::kAccel).ok());

  // lease_ttl (800 us) + fence_margin (500 us) past the fence start: the
  // isolated agent has provably self-fenced, the fence may resolve.
  rig.loop.RunFor(2 * kMillisecond);
  EXPECT_GE(rig.OrchCount("fences_ttl_expired"), 1u);

  rig.plane().HealPartition(one, rest);
  rig.loop.RunFor(600 * kMicrosecond);
  EXPECT_GE(rig.OrchCount("host_reregistrations"), 1u);
  EXPECT_TRUE(rig.orch().agent_alive(HostId(1)));
  // Re-issue under the bumped epoch; the old holder's path is fenced.
  auto regrant = rig.orch().Acquire(HostId(2), DeviceType::kAccel);
  ASSERT_TRUE(regrant.ok());
  EXPECT_EQ(regrant->device, PcieDeviceId(60));
  Status st = RunBlocking(rig.loop, WriteReg(*rig.path, 99));
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_GE(rig.AgentCount(1, "stale_epoch_rejects"), 1u);
}

// Orchestrator-only isolation of the HOME agent: its peers keep it alive
// (suspect, not dead), and after lease_ttl without a report round-trip it
// self-fences — forwarded ops are refused locally even though no epoch
// push could reach it. Healing restores both the lease clock and traffic.
TEST(PartitionTest, HomeAgentSelfFencesWhenIsolatedFromOrchestrator) {
  PartitionRig rig(/*accel_home=*/2, /*user=*/1);
  CXLPOOL_CHECK_OK(RunBlocking(rig.loop, WriteReg(*rig.path, 1)));

  rig.plane().Cut(HostId(2), HostId(0));
  rig.plane().Cut(HostId(0), HostId(2));
  // Inside the self-fence window: past lease_ttl (800 us, so the agent has
  // stopped serving) but short of lease_ttl + fence_margin (1.3 ms, where
  // the orchestrator may condemn the silent suspect — by then it is
  // provably self-fenced, so even that death would be split-brain-safe).
  rig.loop.RunFor(kMillisecond);

  EXPECT_EQ(rig.OrchCount("host_deaths"), 0u);
  EXPECT_GE(rig.OrchCount("suspects"), 1u);
  Status st = RunBlocking(rig.loop, WriteReg(*rig.path, 50));
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_GE(rig.AgentCount(2, "self_fence_rejects"), 1u);

  rig.plane().Heal(HostId(2), HostId(0));
  rig.plane().Heal(HostId(0), HostId(2));
  rig.loop.RunFor(500 * kMicrosecond);
  EXPECT_GE(rig.OrchCount("suspect_recoveries"), 1u);
  CXLPOOL_CHECK_OK(RunBlocking(rig.loop, WriteReg(*rig.path, 7)));
  EXPECT_EQ(rig.accel->regs[0x10], 7u);
}

// A single DIRECTED cut (reports die, everything else flows) must behave
// like the orchestrator-only partition: suspect, no death, full recovery.
TEST(PartitionTest, AsymmetricCutSuspectsWithoutCondemnation) {
  PartitionRig rig(/*accel_home=*/2, /*user=*/3);
  CXLPOOL_CHECK_OK(RunBlocking(rig.loop, WriteReg(*rig.path, 1)));

  rig.plane().Cut(HostId(3), HostId(0));  // one direction only
  rig.loop.RunFor(kMillisecond);

  EXPECT_EQ(rig.OrchCount("host_deaths"), 0u);
  EXPECT_GE(rig.OrchCount("suspects"), 1u);
  EXPECT_TRUE(rig.orch().agent_alive(HostId(3)));
  // The victim's own forwarded path (h3->h2) is untouched by the cut.
  CXLPOOL_CHECK_OK(RunBlocking(rig.loop, WriteReg(*rig.path, 2)));

  rig.plane().Heal(HostId(3), HostId(0));
  rig.loop.RunFor(500 * kMicrosecond);
  EXPECT_GE(rig.OrchCount("suspect_recoveries"), 1u);
  EXPECT_EQ(rig.orch().suspect_count(), 0u);
}

}  // namespace
}  // namespace cxlpool::core
