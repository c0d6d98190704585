// Gray-failure acceptance tests: the three end-to-end behaviors ISSUE
// pins — exactly-once forwarded MMIO under timeout-triggered retries,
// watchdog detection + FLR repair of a wedged device, and orchestrator
// quarantine of a flapping device with exponential probation.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/msg/channel.h"
#include "src/msg/rpc.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::core {
namespace {

using sim::RunBlocking;
using sim::Task;

// Counts every OnMmioWrite so a double-applied doorbell is visible.
class CountingDevice : public pcie::PcieDevice {
 public:
  CountingDevice(PcieDeviceId id, sim::EventLoop& loop)
      : PcieDevice(id, "counter", loop, cxl::LinkSpec{}, pcie::PcieTiming{}) {}

  std::map<uint64_t, uint64_t> regs;
  std::map<uint64_t, int> write_counts;
  int resets = 0;

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override {
    regs[reg] = value;
    ++write_counts[reg];
  }
  uint64_t OnMmioRead(uint64_t reg) override { return regs[reg]; }
  void OnReset() override { ++resets; }
};

RackConfig SmallRack(int hosts = 3) {
  RackConfig rc;
  rc.pod.num_hosts = hosts;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 32 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.nics_per_host = 1;
  return rc;
}

class GrayFailureTest : public ::testing::Test {
 protected:
  void Drain() {
    rack_->Shutdown();
    loop_.RunFor(500 * kMicrosecond);
  }

  sim::EventLoop loop_;
  std::unique_ptr<Rack> rack_;
};

// --- Exactly-once forwarded MMIO (acceptance) ---
//
// The first attempt's deadline (200ns) is far below the forwarded RTT
// (>=700ns, see CoreTest.RemoteMmioCostsMoreThanLocal), so it times out
// AFTER the frame is already in the home agent's request ring. The agent
// applies it; the retry re-sends the SAME (client_id, seq) and must be
// acknowledged from the dedup window, not re-applied.
TEST_F(GrayFailureTest, TimedOutDoorbellIsAppliedExactlyOnce) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  CountingDevice dev(PcieDeviceId(90), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  // Private forwarding channel so the test controls the path's timeout
  // without disturbing the rack's own control-plane RPC deadlines.
  auto channel = msg::Channel::Create(rack_->pod().pool(), rack_->pod().host(2),
                                      rack_->pod().host(0));
  ASSERT_TRUE(channel.ok());
  Agent* agent = rack_->orchestrator().agent(HostId(0));
  ASSERT_NE(agent, nullptr);
  agent->ServeForwarding((*channel)->end_b(), rack_->stop_token());

  auto client = std::make_shared<msg::RpcClient>((*channel)->end_a());
  msg::RetryPolicy::Options retry;
  retry.max_attempts = 4;
  retry.initial_backoff = 2 * kMicrosecond;
  retry.max_backoff = 20 * kMicrosecond;
  // Escalate 8x per attempt: 200ns, 1.6us, 12.8us — the last is above the
  // 10us RTT ceiling, so the op completes without exhausting attempts.
  retry.timeout_multiplier = 8.0;
  ForwardedMmioPath path(client, PcieDeviceId(90), /*epoch=*/0,
                         /*timeout=*/200, loop_, /*client_id=*/7, retry,
                         *rack_->orchestrator().breaker(PcieDeviceId(90)));

  auto t = [](ForwardedMmioPath& p) -> Task<Status> {
    co_return co_await p.Write(0x20, 0xd00d);
  };
  Status st = RunBlocking(loop_, t(path));
  loop_.RunFor(100 * kMicrosecond);  // let straggler duplicates drain

  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "retry.retries",
                         {{"host", "2"}, {"device", "90"}}), 1u) << "deadline never fired; the "
      "test lost its premise that attempt 1 times out mid-flight";
  // THE acceptance check: the doorbell landed exactly once.
  EXPECT_EQ(dev.write_counts[0x20], 1);
  EXPECT_EQ(dev.regs[0x20], 0xd00du);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "agent.forwarded_writes",
                         HostLabels(agent->host_id().value())), 1u);
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "agent.dedup_hits",
                         HostLabels(agent->host_id().value())), 1u);
  Drain();
}

// Sequential ops through the same path keep distinct seqs: dedup must
// suppress duplicates of one op without eating the next op.
TEST_F(GrayFailureTest, DedupWindowDoesNotSwallowSubsequentOps) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  CountingDevice dev(PcieDeviceId(91), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  auto channel = msg::Channel::Create(rack_->pod().pool(), rack_->pod().host(1),
                                      rack_->pod().host(0));
  ASSERT_TRUE(channel.ok());
  Agent* agent = rack_->orchestrator().agent(HostId(0));
  agent->ServeForwarding((*channel)->end_b(), rack_->stop_token());

  auto client = std::make_shared<msg::RpcClient>((*channel)->end_a());
  msg::RetryPolicy::Options retry;
  retry.max_attempts = 4;
  retry.initial_backoff = 2 * kMicrosecond;
  retry.timeout_multiplier = 8.0;
  ForwardedMmioPath path(client, PcieDeviceId(91), /*epoch=*/0,
                         /*timeout=*/200, loop_, /*client_id=*/9, retry,
                         *rack_->orchestrator().breaker(PcieDeviceId(91)));

  auto t = [](ForwardedMmioPath& p) -> Task<Status> {
    for (uint64_t reg = 1; reg <= 3; ++reg) {
      if (Status s = co_await p.Write(reg, reg * 11); !s.ok()) {
        co_return s;
      }
    }
    co_return OkStatus();
  };
  Status st = RunBlocking(loop_, t(path));
  loop_.RunFor(100 * kMicrosecond);

  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(dev.write_counts[1], 1);
  EXPECT_EQ(dev.write_counts[2], 1);
  EXPECT_EQ(dev.write_counts[3], 1);
  EXPECT_EQ(dev.regs[2], 22u);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "agent.forwarded_writes",
                         HostLabels(agent->host_id().value())), 3u);
  Drain();
}

// --- Watchdog: wedge detection and FLR repair (integration) ---

TEST_F(GrayFailureTest, AgentWatchdogDetectsWedgeAndIssuesFlr) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  CountingDevice dev(PcieDeviceId(92), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();
  loop_.RunFor(50 * kMicrosecond);  // a few clean monitor cycles first

  dev.Wedge();
  ASSERT_TRUE(dev.wedged());
  // Detection needs wedge_miss_threshold (2) probes, each stalling for the
  // wedge stall (20us) on top of the monitor interval (20us).
  loop_.RunFor(500 * kMicrosecond);

  Agent* agent = rack_->orchestrator().agent(HostId(0));
  EXPECT_FALSE(dev.wedged()) << "watchdog never reset the wedged device";
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "agent.watchdog_misses",
                         HostLabels(agent->host_id().value())), 2u);
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "agent.flr_resets",
                         HostLabels(agent->host_id().value())), 1u);
  EXPECT_GE(agent->device_fault_episodes(PcieDeviceId(92)), 1u);
  EXPECT_GE(dev.resets, 1);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "pcie.wedges", DeviceLabels(92)), 1u);
  // The episode reaches the orchestrator's flap accounting via reports.
  const auto* rec = rack_->orchestrator().record(PcieDeviceId(92));
  ASSERT_NE(rec, nullptr);
  EXPECT_GE(rec->reported_fault_episodes, 1u);
  Drain();
}

// --- Quarantine (acceptance) ---
//
// Flap threshold 3 (default). A device crossing it serves a probation
// during which it is never offered; after expiry it is offered again; a
// re-offense doubles the sentence.
TEST_F(GrayFailureTest, FlappingDeviceIsQuarantinedThenReoffered) {
  RackConfig rc = SmallRack();
  rc.orch.quarantine_probation = 1 * kMillisecond;
  rack_ = std::make_unique<Rack>(loop_, rc);
  CountingDevice dev_a(PcieDeviceId(93), loop_);
  CountingDevice dev_b(PcieDeviceId(94), loop_);
  dev_a.AttachTo(&rack_->pod().host(0));
  dev_b.AttachTo(&rack_->pod().host(0));
  Orchestrator& orch = rack_->orchestrator();
  orch.RegisterDevice(HostId(0), &dev_a, DeviceType::kAccel);
  orch.RegisterDevice(HostId(0), &dev_b, DeviceType::kAccel);
  rack_->Start();

  // Remote user: allocation goes through PickDevice.
  auto first = orch.Acquire(HostId(1), DeviceType::kAccel);
  ASSERT_TRUE(first.ok());
  CXLPOOL_CHECK_OK(orch.Release(HostId(1), first->device));

  // Quarantine activity now lives in the metrics registry.
  auto quarantine_count = [&](const std::string& name) {
    return CounterValue(rack_->pod().metrics(), name);
  };

  // Flap device A past the threshold: quarantined, never offered.
  orch.NoteFlaps(PcieDeviceId(93), 3);
  EXPECT_TRUE(orch.InQuarantine(PcieDeviceId(93)));
  EXPECT_EQ(quarantine_count("orch.quarantines"), 1u);
  for (int i = 0; i < 4; ++i) {
    auto a = orch.Acquire(HostId(1), DeviceType::kAccel);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->device, PcieDeviceId(94)) << "quarantined device was offered";
    CXLPOOL_CHECK_OK(orch.Release(HostId(1), a->device));
  }
  EXPECT_GE(quarantine_count("orch.quarantined_skips"), 4u);

  // Flap B too: NO leases during probation, error rather than a bad lease.
  orch.NoteFlaps(PcieDeviceId(94), 3);
  auto none = orch.Acquire(HostId(1), DeviceType::kAccel);
  EXPECT_EQ(none.status().code(), StatusCode::kResourceExhausted);

  // Probation served: both devices come back.
  loop_.RunFor(2 * kMillisecond);
  EXPECT_FALSE(orch.InQuarantine(PcieDeviceId(93)));
  EXPECT_FALSE(orch.InQuarantine(PcieDeviceId(94)));
  EXPECT_GE(quarantine_count("orch.quarantine_releases"), 2u);
  auto again = orch.Acquire(HostId(1), DeviceType::kAccel);
  EXPECT_TRUE(again.ok());

  // Re-offense: probation doubles (level 2 => 2x base).
  Nanos before = loop_.now();
  orch.NoteFlaps(PcieDeviceId(93), 3);
  const auto* rec = orch.record(PcieDeviceId(93));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->quarantine_level, 2u);
  EXPECT_EQ(rec->probation_until - before, 2 * rc.orch.quarantine_probation);
  // Still quarantined after the BASE probation; released after the doubled one.
  loop_.RunFor(rc.orch.quarantine_probation + 100 * kMicrosecond);
  EXPECT_TRUE(orch.InQuarantine(PcieDeviceId(93)));
  loop_.RunFor(rc.orch.quarantine_probation);
  EXPECT_FALSE(orch.InQuarantine(PcieDeviceId(93)));
  Drain();
}

// Flaps below the threshold never quarantine.
TEST_F(GrayFailureTest, QuarantineRespectsThresholdConfig) {
  RackConfig rc = SmallRack();
  ASSERT_EQ(rc.orch.quarantine_flap_threshold, 3u);
  rack_ = std::make_unique<Rack>(loop_, rc);
  CountingDevice dev(PcieDeviceId(95), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  rack_->orchestrator().NoteFlaps(PcieDeviceId(95), 2);
  EXPECT_FALSE(rack_->orchestrator().InQuarantine(PcieDeviceId(95)));
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "orch.quarantines"), 0u);
  Drain();
}

}  // namespace
}  // namespace cxlpool::core
