#include <gtest/gtest.h>

#include "src/cxl/pod.h"
#include "src/pcie/device.h"
#include "src/pcie/switch_fabric.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::pcie {
namespace {

using sim::RunBlocking;
using sim::Task;

class TestDevice : public PcieDevice {
 public:
  TestDevice(PcieDeviceId id, sim::EventLoop& loop)
      : PcieDevice(id, "test", loop, cxl::LinkSpec{}, PcieTiming{}) {}

  uint64_t last_write_reg = 0;
  uint64_t last_write_value = 0;
  int attaches = 0;
  int detaches = 0;
  int resets = 0;

  // Exposes protected DMA for tests.
  sim::Task<Status> TestDmaRead(uint64_t addr, std::span<std::byte> out) {
    return DmaRead(addr, out);
  }
  sim::Task<Status> TestDmaWrite(uint64_t addr, std::span<const std::byte> in) {
    return DmaWrite(addr, in);
  }

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override {
    last_write_reg = reg;
    last_write_value = value;
  }
  uint64_t OnMmioRead(uint64_t reg) override { return reg * 2; }
  void OnAttach() override { ++attaches; }
  void OnDetach() override { ++detaches; }
  void OnReset() override { ++resets; }
};

class PcieTest : public ::testing::Test {
 protected:
  PcieTest() : pod_(loop_, Config()) {}

  static cxl::CxlPodConfig Config() {
    cxl::CxlPodConfig c;
    c.num_hosts = 2;
    c.num_mhds = 1;
    c.mhd_capacity = 16 * kMiB;
    c.dram_per_host = 4 * kMiB;
    return c;
  }

  sim::EventLoop loop_;
  cxl::CxlPod pod_;
};

TEST_F(PcieTest, MmioRequiresAttachment) {
  TestDevice dev(PcieDeviceId(1), loop_);
  auto t = [](TestDevice& d) -> Task<Status> {
    co_return co_await d.MmioWrite(8, 42);
  };
  EXPECT_EQ(RunBlocking(loop_, t(dev)).code(), StatusCode::kFailedPrecondition);
}

TEST_F(PcieTest, PostedMmioWriteLandsAfterLatency) {
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  auto t = [](TestDevice& d, sim::EventLoop& loop) -> Task<Nanos> {
    Nanos start = loop.now();
    CXLPOOL_CHECK_OK(co_await d.MmioWrite(0x10, 99));
    co_return loop.now() - start;
  };
  Nanos cpu_cost = RunBlocking(loop_, t(dev, loop_));
  // CPU pays only the post cost; the device sees the value later.
  EXPECT_EQ(cpu_cost, dev.timing().mmio_post_cpu);
  EXPECT_EQ(dev.last_write_value, 0u);  // not yet delivered
  loop_.RunFor(dev.timing().mmio_write);
  EXPECT_EQ(dev.last_write_value, 99u);
  EXPECT_EQ(dev.last_write_reg, 0x10u);
}

TEST_F(PcieTest, MmioReadRoundTrips) {
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  auto t = [](TestDevice& d, sim::EventLoop& loop) -> Task<std::pair<uint64_t, Nanos>> {
    Nanos start = loop.now();
    auto v = co_await d.MmioRead(21);
    CXLPOOL_CHECK(v.ok());
    co_return std::make_pair(*v, loop.now() - start);
  };
  auto [value, took] = RunBlocking(loop_, t(dev, loop_));
  EXPECT_EQ(value, 42u);
  EXPECT_GE(took, dev.timing().mmio_read);  // non-posted: full round trip
}

TEST_F(PcieTest, FailedDeviceRejectsEverything) {
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  dev.InjectFailure();
  auto t = [](TestDevice& d) -> Task<Status> {
    co_return co_await d.MmioWrite(1, 1);
  };
  EXPECT_EQ(RunBlocking(loop_, t(dev)).code(), StatusCode::kUnavailable);
  dev.Repair();
  EXPECT_TRUE(RunBlocking(loop_, t(dev)).ok());
}

TEST_F(PcieTest, GenerationBumpsOnLifecycleEvents) {
  TestDevice dev(PcieDeviceId(1), loop_);
  uint64_t g0 = dev.generation();
  dev.AttachTo(&pod_.host(0));
  EXPECT_GT(dev.generation(), g0);
  uint64_t g1 = dev.generation();
  dev.InjectFailure();
  EXPECT_GT(dev.generation(), g1);
  uint64_t g2 = dev.generation();
  dev.Repair();
  EXPECT_GT(dev.generation(), g2);
  dev.Detach();
  EXPECT_EQ(dev.attaches, 1);
  EXPECT_EQ(dev.detaches, 1);
}

TEST_F(PcieTest, DmaRoundTripThroughHostDram) {
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  auto addr = pod_.host(0).AllocateDram(4096);
  ASSERT_TRUE(addr.ok());

  auto t = [](TestDevice& d, uint64_t a) -> Task<bool> {
    std::vector<std::byte> in(256, std::byte{0x3c});
    CXLPOOL_CHECK_OK(co_await d.TestDmaWrite(a, in));
    std::vector<std::byte> out(256);
    CXLPOOL_CHECK_OK(co_await d.TestDmaRead(a, out));
    co_return out == in;
  };
  EXPECT_TRUE(RunBlocking(loop_, t(dev, *addr)));
}

TEST_F(PcieTest, DmaToOtherHostsDramRejected) {
  // The fundamental limitation pooling must work around: a device on host
  // 0 cannot DMA into host 1's DRAM.
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  auto addr = pod_.host(1).AllocateDram(4096);
  ASSERT_TRUE(addr.ok());
  auto t = [](TestDevice& d, uint64_t a) -> Task<Status> {
    std::vector<std::byte> in(64, std::byte{1});
    co_return co_await d.TestDmaWrite(a, in);
  };
  EXPECT_EQ(RunBlocking(loop_, t(dev, *addr)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PcieTest, DmaToPoolMemoryWorksFromAnyAttachment) {
  // ... but DMA to CXL pool memory works no matter which host the device
  // hangs off — the paper's enabling observation.
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  for (int h = 0; h < 2; ++h) {
    TestDevice dev(PcieDeviceId(10 + h), loop_);
    dev.AttachTo(&pod_.host(h));
    auto t = [](TestDevice& d, uint64_t a, uint8_t v) -> Task<bool> {
      std::vector<std::byte> in(64, std::byte{v});
      CXLPOOL_CHECK_OK(co_await d.TestDmaWrite(a, in));
      co_await sim::Delay(d.loop(), kMicrosecond);
      std::vector<std::byte> out(64);
      CXLPOOL_CHECK_OK(co_await d.TestDmaRead(a, out));
      co_return out == in;
    };
    EXPECT_TRUE(RunBlocking(loop_, t(dev, seg->base, static_cast<uint8_t>(h + 1))));
    dev.Detach();
  }
}

// --- PCIe switch fabric ---

TEST_F(PcieTest, SwitchBindsDeviceToRemoteHost) {
  PcieSwitchFabric fabric(loop_, PcieSwitchConfig{});
  TestDevice dev(PcieDeviceId(5), loop_);
  ASSERT_TRUE(fabric.AttachHost(&pod_.host(1)).ok());
  ASSERT_TRUE(fabric.AttachDevice(&dev, DeviceClass::kAccelerator).ok());
  ASSERT_TRUE(fabric.Bind(dev.id(), HostId(1)).ok());
  EXPECT_EQ(fabric.BoundHost(dev.id()), HostId(1));
  EXPECT_TRUE(dev.attached());
  EXPECT_NE(dev.interposer(), nullptr);

  // Through the switch, the device can DMA into host 1's DRAM.
  auto addr = pod_.host(1).AllocateDram(4096);
  auto t = [](TestDevice& d, uint64_t a) -> Task<Status> {
    std::vector<std::byte> in(64, std::byte{9});
    co_return co_await d.TestDmaWrite(a, in);
  };
  EXPECT_TRUE(RunBlocking(loop_, t(dev, *addr)).ok());
}

TEST_F(PcieTest, SwitchAddsHopLatency) {
  PcieSwitchConfig config;
  PcieSwitchFabric fabric(loop_, config);
  TestDevice dev(PcieDeviceId(5), loop_);
  ASSERT_TRUE(fabric.AttachHost(&pod_.host(0)).ok());
  ASSERT_TRUE(fabric.AttachDevice(&dev, DeviceClass::kAny).ok());
  ASSERT_TRUE(fabric.Bind(dev.id(), HostId(0)).ok());

  auto t = [](TestDevice& d, sim::EventLoop& loop) -> Task<Nanos> {
    Nanos start = loop.now();
    auto v = co_await d.MmioRead(4);
    CXLPOOL_CHECK(v.ok());
    co_return loop.now() - start;
  };
  Nanos through_switch = RunBlocking(loop_, t(dev, loop_));
  EXPECT_GE(through_switch, dev.timing().mmio_read + 2 * config.hop_latency);
}

TEST_F(PcieTest, SwitchRebindMovesDevice) {
  PcieSwitchFabric fabric(loop_, PcieSwitchConfig{});
  TestDevice dev(PcieDeviceId(5), loop_);
  ASSERT_TRUE(fabric.AttachHost(&pod_.host(0)).ok());
  ASSERT_TRUE(fabric.AttachHost(&pod_.host(1)).ok());
  ASSERT_TRUE(fabric.AttachDevice(&dev, DeviceClass::kAny).ok());
  ASSERT_TRUE(fabric.Bind(dev.id(), HostId(0)).ok());
  ASSERT_TRUE(fabric.Bind(dev.id(), HostId(1)).ok());  // rebind
  EXPECT_EQ(fabric.BoundHost(dev.id()), HostId(1));
  EXPECT_EQ(fabric.rebinds(), 1u);
  EXPECT_EQ(dev.attached_host()->id(), HostId(1));
}

TEST_F(PcieTest, SwitchEnforcesDeviceClass) {
  PcieSwitchConfig storage_only;
  storage_only.supported = DeviceClass::kStorage;
  PcieSwitchFabric fabric(loop_, storage_only);
  TestDevice nic_like(PcieDeviceId(6), loop_);
  EXPECT_EQ(fabric.AttachDevice(&nic_like, DeviceClass::kNic).code(),
            StatusCode::kFailedPrecondition);
  TestDevice ssd_like(PcieDeviceId(7), loop_);
  EXPECT_TRUE(fabric.AttachDevice(&ssd_like, DeviceClass::kStorage).ok());
}

TEST_F(PcieTest, SwitchPortLimits) {
  PcieSwitchConfig tiny;
  tiny.host_ports = 1;
  tiny.device_ports = 1;
  PcieSwitchFabric fabric(loop_, tiny);
  ASSERT_TRUE(fabric.AttachHost(&pod_.host(0)).ok());
  EXPECT_EQ(fabric.AttachHost(&pod_.host(1)).code(),
            StatusCode::kResourceExhausted);
  TestDevice d1(PcieDeviceId(1), loop_);
  TestDevice d2(PcieDeviceId(2), loop_);
  ASSERT_TRUE(fabric.AttachDevice(&d1, DeviceClass::kAny).ok());
  EXPECT_EQ(fabric.AttachDevice(&d2, DeviceClass::kAny).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(PcieTest, UnbindReleasesDevice) {
  PcieSwitchFabric fabric(loop_, PcieSwitchConfig{});
  TestDevice dev(PcieDeviceId(5), loop_);
  ASSERT_TRUE(fabric.AttachHost(&pod_.host(0)).ok());
  ASSERT_TRUE(fabric.AttachDevice(&dev, DeviceClass::kAny).ok());
  ASSERT_TRUE(fabric.Bind(dev.id(), HostId(0)).ok());
  ASSERT_TRUE(fabric.Unbind(dev.id()).ok());
  EXPECT_FALSE(dev.attached());
  EXPECT_EQ(dev.interposer(), nullptr);
  EXPECT_EQ(fabric.Unbind(dev.id()).code(), StatusCode::kFailedPrecondition);
}

// --- Gray failures: wedge vs fail-stop, FLR reset ---

TEST_F(PcieTest, WedgedDeviceStallsMmioReadsThenTimesOut) {
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  dev.Wedge();
  EXPECT_TRUE(dev.wedged());

  auto t = [](TestDevice& d, sim::EventLoop& loop) -> Task<std::pair<Status, Nanos>> {
    Nanos start = loop.now();
    auto v = co_await d.MmioRead(4);
    co_return std::make_pair(v.status(), loop.now() - start);
  };
  auto [st, took] = RunBlocking(loop_, t(dev, loop_));
  // The gray signature: not an immediate error (that is fail-stop), but a
  // stall for the completion timeout followed by kDeadlineExceeded.
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(took, dev.timing().wedge_stall);
  EXPECT_GE(CounterValue(pod_.metrics(), "pcie.stalled_ops", DeviceLabels(dev.id().value())), 1u);
}

TEST_F(PcieTest, WedgedDeviceAbsorbsPostedWrites) {
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  dev.Wedge();

  auto t = [](TestDevice& d) -> Task<Status> {
    co_return co_await d.MmioWrite(0x10, 77);
  };
  // Posted semantics: the CPU-side write "succeeds" (that is what makes
  // wedges gray — the writer cannot tell), but the device never sees it.
  EXPECT_TRUE(RunBlocking(loop_, t(dev)).ok());
  loop_.RunFor(10 * dev.timing().mmio_write);
  EXPECT_EQ(dev.last_write_value, 0u);
  EXPECT_EQ(CounterValue(pod_.metrics(), "pcie.dropped_mmio_writes", DeviceLabels(dev.id().value())), 1u);
}

TEST_F(PcieTest, WedgedDeviceStallsDma) {
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  auto addr = pod_.host(0).AllocateDram(4096);
  ASSERT_TRUE(addr.ok());
  dev.Wedge();
  auto t = [](TestDevice& d, uint64_t a) -> Task<Status> {
    std::vector<std::byte> out(64);
    co_return co_await d.TestDmaRead(a, out);
  };
  EXPECT_EQ(RunBlocking(loop_, t(dev, *addr)).code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(PcieTest, WedgeIsDistinctFromFailStop) {
  // Fail-stop answers immediately with kUnavailable; a wedge stalls first
  // and times out. Detectors key on exactly this difference.
  TestDevice failed(PcieDeviceId(1), loop_);
  failed.AttachTo(&pod_.host(0));
  failed.InjectFailure();
  TestDevice wedged(PcieDeviceId(2), loop_);
  wedged.AttachTo(&pod_.host(0));
  wedged.Wedge();

  auto t = [](TestDevice& d, sim::EventLoop& loop) -> Task<std::pair<Status, Nanos>> {
    Nanos start = loop.now();
    auto v = co_await d.MmioRead(4);
    co_return std::make_pair(v.status(), loop.now() - start);
  };
  auto [failed_st, failed_took] = RunBlocking(loop_, t(failed, loop_));
  auto [wedged_st, wedged_took] = RunBlocking(loop_, t(wedged, loop_));
  EXPECT_EQ(failed_st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(failed_took, 0);
  EXPECT_EQ(wedged_st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(wedged_took, wedged.timing().wedge_stall);
  // Wedge does not bump the generation (nothing re-bound); failure does.
  EXPECT_EQ(CounterValue(pod_.metrics(), "pcie.wedges", DeviceLabels(wedged.id().value())), 1u);
}

TEST_F(PcieTest, ResetClearsWedgeAndDrainsEngines) {
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  uint64_t gen_before = dev.generation();
  dev.Wedge();
  EXPECT_EQ(dev.generation(), gen_before);  // hung, not re-bound

  dev.Reset();
  EXPECT_FALSE(dev.wedged());
  EXPECT_EQ(dev.resets, 1);
  EXPECT_GT(dev.generation(), gen_before);  // engines observe and exit
  EXPECT_EQ(CounterValue(pod_.metrics(), "pcie.resets", DeviceLabels(dev.id().value())), 1u);

  // Back in service: reads round-trip again.
  auto t = [](TestDevice& d) -> Task<uint64_t> {
    auto v = co_await d.MmioRead(21);
    CXLPOOL_CHECK(v.ok());
    co_return *v;
  };
  EXPECT_EQ(RunBlocking(loop_, t(dev)), 42u);
}

TEST_F(PcieTest, WedgeOnFailedDeviceIsIgnored) {
  TestDevice dev(PcieDeviceId(1), loop_);
  dev.AttachTo(&pod_.host(0));
  dev.InjectFailure();
  dev.Wedge();  // fail-stop wins; wedge on a dead device is meaningless
  EXPECT_FALSE(dev.wedged());
  EXPECT_EQ(CounterValue(pod_.metrics(), "pcie.wedges", DeviceLabels(dev.id().value())), 0u);
}

}  // namespace
}  // namespace cxlpool::pcie
