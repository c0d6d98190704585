// Overload-protection integration tests: the breaker -> NoteFlaps ->
// quarantine pipeline, the half-open-probe / quarantine-sweep race,
// deadline propagation shedding work before the device BAR, and the
// per-agent inflight bound shedding data while control survives.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/msg/backpressure.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::core {
namespace {

using sim::RunBlocking;
using sim::Spawn;
using sim::Task;

class CountingDevice : public pcie::PcieDevice {
 public:
  CountingDevice(PcieDeviceId id, sim::EventLoop& loop)
      : PcieDevice(id, "counter", loop, cxl::LinkSpec{}, pcie::PcieTiming{}) {}

  std::map<uint64_t, uint64_t> regs;
  std::map<uint64_t, int> write_counts;

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override {
    regs[reg] = value;
    ++write_counts[reg];
  }
  uint64_t OnMmioRead(uint64_t reg) override { return regs[reg]; }
};

RackConfig SmallRack(int hosts = 2) {
  RackConfig rc;
  rc.pod.num_hosts = hosts;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 32 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.nics_per_host = 1;
  return rc;
}

class OverloadTest : public ::testing::Test {
 protected:
  void Drain() {
    rack_->Shutdown();
    loop_.RunFor(500 * kMicrosecond);
  }

  sim::EventLoop loop_;
  std::unique_ptr<Rack> rack_;
};

Task<Status> WriteOnce(MmioPath& path, uint64_t reg, uint64_t value,
                       Nanos deadline = 0) {
  co_return co_await path.Write(reg, value, {}, deadline);
}

// --- Breaker opens feed quarantine flap accounting ---
//
// A home agent that stops draining (wedged container, not a dead host)
// turns every forwarded op into transport silence. The per-device breaker
// must trip on consecutive silence, each open must feed NoteFlaps, and
// enough opens must quarantine the device — without any watchdog/FLR
// involvement (the device itself is healthy).
TEST_F(OverloadTest, BreakerOpensFeedQuarantine) {
  RackConfig rc = SmallRack();
  rc.orch.rpc_timeout = 100 * kMicrosecond;
  rc.orch.mmio_retry.max_attempts = 1;  // one attempt per op: clear counting
  rc.orch.breaker.failure_threshold = 2;
  rc.orch.breaker.open_duration = 200 * kMicrosecond;
  rc.orch.quarantine_flap_threshold = 2;
  rc.orch.quarantine_probation = 1 * kMillisecond;
  rack_ = std::make_unique<Rack>(loop_, rc);
  CountingDevice dev(PcieDeviceId(50), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  auto path = rack_->orchestrator().MakeMmioPath(HostId(1), PcieDeviceId(50));
  ASSERT_TRUE(path.ok());
  Agent* agent = rack_->orchestrator().agent(HostId(0));
  ASSERT_NE(agent, nullptr);
  msg::CircuitBreaker* breaker =
      rack_->orchestrator().breaker(PcieDeviceId(50));
  ASSERT_NE(breaker, nullptr);

  // The agent stalls every forwarded op far past the RPC timeout: silence.
  agent->InjectSlowDrain(kMillisecond);

  // Two consecutive timeouts (no op deadline, so silence counts) trip the
  // breaker: open #1, flap #1.
  EXPECT_EQ(RunBlocking(loop_, WriteOnce(**path, 0x8, 1)).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(RunBlocking(loop_, WriteOnce(**path, 0x8, 2)).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "breaker.opens", DeviceLabels(50)), 1u);
  EXPECT_FALSE(rack_->orchestrator().InQuarantine(PcieDeviceId(50)));

  // While open: fast-fail with kOverloaded, no wire traffic, no new flap.
  EXPECT_EQ(RunBlocking(loop_, WriteOnce(**path, 0x8, 3)).code(),
            StatusCode::kOverloaded);
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "breaker.fast_fails", DeviceLabels(50)), 1u);

  // Past open_duration the breaker half-opens; the probe also times out,
  // re-tripping immediately: open #2, flap #2 -> quarantine.
  loop_.RunFor(250 * kMicrosecond);
  EXPECT_EQ(RunBlocking(loop_, WriteOnce(**path, 0x8, 4)).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "breaker.opens", DeviceLabels(50)), 2u);
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "breaker.probes", DeviceLabels(50)), 1u);
  EXPECT_TRUE(rack_->orchestrator().InQuarantine(PcieDeviceId(50)));
  // The device itself was never the problem: no FLR, no watchdog noise.
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "agent.flr_resets", HostLabels(0)), 0u);

  agent->InjectSlowDrain(0);
  Drain();
}

// --- Half-open probe racing the quarantine sweep ---
//
// The breaker and quarantine heal on independent clocks. A half-open probe
// that succeeds while the device is still serving probation must close the
// breaker WITHOUT un-quarantining the device; allocation stays gated until
// probation expires; then both mechanisms agree the device is back.
TEST_F(OverloadTest, HalfOpenProbeRacesQuarantineSweep) {
  RackConfig rc = SmallRack();
  rc.orch.rpc_timeout = 100 * kMicrosecond;
  rc.orch.mmio_retry.max_attempts = 1;
  rc.orch.breaker.failure_threshold = 2;
  rc.orch.breaker.open_duration = 200 * kMicrosecond;
  rc.orch.breaker.half_open_successes = 2;
  rc.orch.quarantine_flap_threshold = 1;  // first open quarantines
  rc.orch.quarantine_probation = 2 * kMillisecond;
  rack_ = std::make_unique<Rack>(loop_, rc);
  CountingDevice dev(PcieDeviceId(51), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  auto path = rack_->orchestrator().MakeMmioPath(HostId(1), PcieDeviceId(51));
  ASSERT_TRUE(path.ok());
  Agent* agent = rack_->orchestrator().agent(HostId(0));
  msg::CircuitBreaker* breaker =
      rack_->orchestrator().breaker(PcieDeviceId(51));
  ASSERT_NE(breaker, nullptr);

  agent->InjectSlowDrain(kMillisecond);
  (void)RunBlocking(loop_, WriteOnce(**path, 0x8, 1));
  (void)RunBlocking(loop_, WriteOnce(**path, 0x8, 2));
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "breaker.opens", DeviceLabels(51)), 1u);
  EXPECT_TRUE(rack_->orchestrator().InQuarantine(PcieDeviceId(51)));

  // The agent recovers while the device still serves probation. The two
  // wedged handlers sampled their 1ms stall at entry, so give the serve
  // loop time to drain them — otherwise the probes queue behind the wedge
  // and re-trip the breaker on a stale stall.
  agent->InjectSlowDrain(0);
  loop_.RunFor(1500 * kMicrosecond);  // wedge drained + past open_duration

  // Two successful probes close the breaker... while still quarantined.
  EXPECT_TRUE(RunBlocking(loop_, WriteOnce(**path, 0x8, 3)).ok());
  EXPECT_TRUE(RunBlocking(loop_, WriteOnce(**path, 0x8, 4)).ok());
  EXPECT_EQ(breaker->state(loop_.now()), msg::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(rack_->orchestrator().InQuarantine(PcieDeviceId(51)));

  // Allocation stays gated by the quarantine, independent of the breaker.
  EXPECT_FALSE(rack_->orchestrator().Acquire(HostId(1), DeviceType::kAccel).ok());

  // Probation served: the quarantine sweep releases the device and both
  // mechanisms agree it is usable again.
  loop_.RunFor(2 * kMillisecond);
  EXPECT_FALSE(rack_->orchestrator().InQuarantine(PcieDeviceId(51)));
  auto acq = rack_->orchestrator().Acquire(HostId(1), DeviceType::kAccel);
  EXPECT_TRUE(acq.ok());
  EXPECT_EQ(breaker->state(loop_.now()), msg::CircuitBreaker::State::kClosed);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "breaker.opens", DeviceLabels(51)), 1u);

  Drain();
}

// --- Deadline propagation sheds work before the device BAR ---
TEST_F(OverloadTest, SlowDrainExpiresBeforeDeviceBar) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  CountingDevice dev(PcieDeviceId(52), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  auto path = rack_->orchestrator().MakeMmioPath(HostId(1), PcieDeviceId(52));
  ASSERT_TRUE(path.ok());
  Agent* agent = rack_->orchestrator().agent(HostId(0));
  loop_.RunFor(10 * kMicrosecond);  // off t=0 (deadline 0 means "none")

  // The op's 20us budget dies inside the agent's 30us stall: the pre-BAR
  // re-check must shed it — the device never sees the write.
  agent->InjectSlowDrain(30 * kMicrosecond);
  Status st = RunBlocking(
      loop_, WriteOnce(**path, 0x8, 0xbad, loop_.now() + 20 * kMicrosecond));
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "agent.expired_at_device", HostLabels(0)), 1u);
  EXPECT_EQ(dev.write_counts.count(0x8), 0u);

  // Same stall, roomier budget: the op survives the stall and lands once.
  st = RunBlocking(
      loop_, WriteOnce(**path, 0x8, 0xd00d, loop_.now() + 200 * kMicrosecond));
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(dev.write_counts[0x8], 1);
  EXPECT_EQ(dev.regs[0x8], 0xd00dull);

  agent->InjectSlowDrain(0);
  Drain();
}

// --- Inflight bound sheds data, control survives ---
TEST_F(OverloadTest, InflightBoundShedsDataKeepsControl) {
  RackConfig rc = SmallRack(/*hosts=*/3);
  rc.orch.agent.admission.max_inflight = 1;
  rack_ = std::make_unique<Rack>(loop_, rc);
  CountingDevice dev(PcieDeviceId(53), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  // Two independent users of the same device: two channels, two serve
  // loops, one shared admission controller on the home agent.
  auto path1 = rack_->orchestrator().MakeMmioPath(HostId(1), PcieDeviceId(53));
  auto path2 = rack_->orchestrator().MakeMmioPath(HostId(2), PcieDeviceId(53));
  ASSERT_TRUE(path1.ok());
  ASSERT_TRUE(path2.ok());
  Agent* agent = rack_->orchestrator().agent(HostId(0));
  agent->InjectSlowDrain(50 * kMicrosecond);

  std::vector<StatusCode> codes(2, StatusCode::kOk);
  Result<uint64_t> probe = 0;
  auto drive = [&](sim::EventLoop& loop) -> Task<> {
    auto one = [&codes](MmioPath& p, int i) -> Task<> {
      Status st = co_await p.Write(0x8, static_cast<uint64_t>(i));
      codes[static_cast<size_t>(i)] =
          st.ok() ? StatusCode::kOk : st.code();
    };
    Spawn(one(**path1, 0));  // enters the handler, stalls 50us
    co_await sim::Delay(loop, 5 * kMicrosecond);
    Spawn(one(**path2, 1));  // dequeued while #0 serves: inflight reject
    co_await sim::Delay(loop, 5 * kMicrosecond);
    // A control-priority probe through the same saturated agent: exempt
    // from the inflight bound, it must land despite the stall.
    auto* fwd = static_cast<ForwardedMmioPath*>(path2->get());
    auto req = mmio_wire::EncodeRead(PcieDeviceId(53), fwd->epoch(),
                                     fwd->client_id(), /*seq=*/1, 0x8);
    auto resp = co_await fwd->rpc_client().Call(
        kMethodMmioRead, req, loop.now() + 500 * kMicrosecond, {},
        msg::kPriorityControl);
    probe = resp.ok() ? Result<uint64_t>(0) : resp.status();
    co_return;
  };
  RunBlocking(loop_, drive(loop_));
  loop_.RunFor(kMillisecond);

  EXPECT_EQ(codes[0], StatusCode::kOk);          // the admitted op lands
  EXPECT_EQ(codes[1], StatusCode::kOverloaded);  // shed, not queued to death
  EXPECT_TRUE(probe.ok());                       // control got through
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "admission.inflight_rejects", HostLabels(0)), 1u);
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "agent.rpc_shed", HostLabels(0)), 1u);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "agent.watchdog_misses", HostLabels(0)), 0u);

  agent->InjectSlowDrain(0);
  Drain();
}

}  // namespace
}  // namespace cxlpool::core
