#include <gtest/gtest.h>

#include <cstring>

#include "src/core/rack.h"
#include "src/netsim/network.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::devices {
namespace {

using core::Rack;
using core::RackConfig;
using sim::RunBlocking;
using sim::Task;

// --- netsim ---

class Sink : public netsim::Endpoint {
 public:
  void DeliverFrame(netsim::Frame frame) override {
    frames.push_back(std::move(frame));
  }
  std::vector<netsim::Frame> frames;
};

TEST(NetworkTest, DeliversToAttachedMac) {
  sim::EventLoop loop;
  netsim::Network net(loop, netsim::NetworkConfig{});
  Sink a;
  Sink b;
  ASSERT_TRUE(net.Attach(1, &a).ok());
  ASSERT_TRUE(net.Attach(2, &b).ok());

  netsim::Frame f;
  f.src = 1;
  f.dst = 2;
  f.payload.assign(100, std::byte{0x42});
  net.Transmit(f);
  EXPECT_TRUE(b.frames.empty());  // not before propagation + switch
  loop.Run();
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(b.frames[0].payload.size(), 100u);
  EXPECT_TRUE(a.frames.empty());
  EXPECT_EQ(net.frames_delivered(), 1u);
}

TEST(NetworkTest, UnknownMacDropped) {
  sim::EventLoop loop;
  netsim::Network net(loop, netsim::NetworkConfig{});
  netsim::Frame f;
  f.dst = 99;
  net.Transmit(f);
  loop.Run();
  EXPECT_EQ(net.frames_dropped(), 1u);
}

TEST(NetworkTest, DuplicateMacRejected) {
  sim::EventLoop loop;
  netsim::Network net(loop, netsim::NetworkConfig{});
  Sink a;
  ASSERT_TRUE(net.Attach(1, &a).ok());
  EXPECT_EQ(net.Attach(1, &a).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(net.Detach(1).ok());
  EXPECT_EQ(net.Detach(1).code(), StatusCode::kNotFound);
}

TEST(NetworkTest, DeliveryLatencyMatchesModel) {
  sim::EventLoop loop;
  netsim::NetworkConfig config;
  netsim::Network net(loop, config);
  Sink b;
  ASSERT_TRUE(net.Attach(2, &b).ok());
  netsim::Frame f;
  f.dst = 2;
  f.payload.assign(1458, std::byte{1});  // 1500 B on the wire
  net.Transmit(f);
  loop.Run();
  Nanos expected = 2 * config.propagation + config.switch_latency +
                   static_cast<Nanos>(1500 / GbitPerSecToBytesPerNanos(100));
  EXPECT_NEAR(static_cast<double>(loop.now()), static_cast<double>(expected), 5);
}

TEST(NetworkTest, EgressSerializationQueues) {
  sim::EventLoop loop;
  netsim::Network net(loop, netsim::NetworkConfig{});
  Sink b;
  ASSERT_TRUE(net.Attach(2, &b).ok());
  // Two full-size frames to the same port: the second queues behind the
  // first on the egress link.
  for (int i = 0; i < 2; ++i) {
    netsim::Frame f;
    f.dst = 2;
    f.payload.assign(1458, std::byte{1});
    net.Transmit(f);
  }
  loop.Run();
  ASSERT_EQ(b.frames.size(), 2u);
  // Both delivered, second ~one serialization later than the first.
  EXPECT_GT(loop.now(), 2 * 120);  // two 1500B serializations at 12.5 B/ns
}

// --- NIC via the full datapath is covered in core/stack tests; here the
// device-local behaviours. ---

RackConfig TinyRack() {
  RackConfig rc;
  rc.pod.num_hosts = 2;
  rc.pod.num_mhds = 1;
  rc.pod.mhd_capacity = 32 * kMiB;
  rc.pod.dram_per_host = 8 * kMiB;
  return rc;
}

TEST(NicDeviceTest, DropsWhenNoRxBuffersPosted) {
  sim::EventLoop loop;
  Rack rack(loop, TinyRack());
  rack.Start();

  // Send a frame to NIC 1 before any driver posted RX buffers.
  netsim::Frame f;
  f.dst = rack.nic(1)->mac();
  f.src = rack.nic(0)->mac();
  f.payload.assign(64, std::byte{1});
  rack.network().Transmit(f);
  loop.RunFor(100 * kMicrosecond);
  EXPECT_EQ(CounterValue(rack.pod().metrics(), "nic.rx_dropped_no_buffer",
                         DeviceLabels(rack.nic(1)->id().value())), 1u);
  rack.Shutdown();
  loop.RunFor(200 * kMicrosecond);
}

TEST(NicDeviceTest, LinkDownDropsTraffic) {
  sim::EventLoop loop;
  Rack rack(loop, TinyRack());
  rack.Start();
  rack.nic(1)->InjectLinkFailure();
  netsim::Frame f;
  f.dst = rack.nic(1)->mac();
  f.payload.assign(64, std::byte{1});
  rack.network().Transmit(f);
  loop.RunFor(100 * kMicrosecond);
  EXPECT_EQ(CounterValue(rack.pod().metrics(), "nic.dropped_link_down",
                         DeviceLabels(rack.nic(1)->id().value())), 1u);
  EXPECT_FALSE(rack.nic(1)->link_up());
  rack.nic(1)->RepairLink();
  EXPECT_TRUE(rack.nic(1)->link_up());
  rack.Shutdown();
  loop.RunFor(200 * kMicrosecond);
}

TEST(NicDeviceTest, WireDownAndWedgeEpisodesCountedSeparately) {
  // Fault attribution: a flapping wire (InjectLinkFailure) and a wedged
  // controller (Wedge + watchdog FLR) are different fault classes with
  // different recovery paths; their episode counters must not bleed into
  // each other.
  sim::EventLoop loop;
  Rack rack(loop, TinyRack());
  rack.Start();
  devices::Nic* nic = rack.nic(0);

  // Episode counters live in the metrics registry, labeled by device id.
  obs::Labels nic_labels = DeviceLabels(nic->id().value());
  auto link_down = [&] {
    return CounterValue(rack.pod().metrics(), "nic.link_down_episodes", nic_labels);
  };
  auto wedges = [&] {
    return CounterValue(rack.pod().metrics(), "nic.wedge_episodes", nic_labels);
  };

  nic->InjectLinkFailure();
  nic->InjectLinkFailure();  // already down: same episode, not a new one
  nic->RepairLink();
  nic->InjectLinkFailure();
  nic->RepairLink();
  EXPECT_EQ(link_down(), 2u);
  EXPECT_EQ(wedges(), 0u);

  // Wedge + FLR (as the home agent's watchdog would issue).
  nic->Wedge();
  nic->Reset();
  EXPECT_EQ(wedges(), 1u);
  EXPECT_EQ(link_down(), 2u);  // unchanged

  // A reset with no intervening wedge is not an episode.
  nic->Reset();
  EXPECT_EQ(wedges(), 1u);

  nic->Wedge();
  nic->Reset();
  EXPECT_EQ(wedges(), 2u);
  EXPECT_EQ(CounterValue(rack.pod().metrics(), "pcie.resets", DeviceLabels(nic->id().value())), 3u);
  rack.Shutdown();
  loop.RunFor(200 * kMicrosecond);
}

// --- SSD device semantics through the virtual driver ---

TEST(SsdDeviceTest, DataPersistsAcrossCommands) {
  sim::EventLoop loop;
  RackConfig rc = TinyRack();
  rc.ssds_per_host = 1;
  Rack rack(loop, rc);
  rack.Start();

  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<bool> {
    auto lease = rack.AcquireDevice(HostId(0), core::DeviceType::kSsd);
    CXLPOOL_CHECK_OK(lease.status());
    auto ssd = co_await core::VirtualSsd::Create(rack.pod().host(0),
                                                 std::move(lease->mmio), {});
    CXLPOOL_CHECK_OK(ssd.status());
    auto seg = rack.pod().pool().Allocate(64 * kKiB);
    CXLPOOL_CHECK_OK(seg.status());

    // Write two distinct extents, then read both back.
    std::vector<std::byte> x(kSsdSectorSize, std::byte{0xaa});
    std::vector<std::byte> y(kSsdSectorSize, std::byte{0xbb});
    CXLPOOL_CHECK_OK(co_await rack.pod().host(0).StoreNt(seg->base, x));
    auto st = co_await (*ssd)->WriteBlocks(0, 1, seg->base, loop.now() + kSecond);
    CXLPOOL_CHECK(st.ok() && *st == kSsdStatusOk);
    CXLPOOL_CHECK_OK(co_await rack.pod().host(0).StoreNt(seg->base, y));
    st = co_await (*ssd)->WriteBlocks(100, 1, seg->base, loop.now() + kSecond);
    CXLPOOL_CHECK(st.ok() && *st == kSsdStatusOk);

    uint64_t readback = seg->base + 8 * kKiB;
    st = co_await (*ssd)->ReadBlocks(0, 1, readback, loop.now() + kSecond);
    CXLPOOL_CHECK(st.ok() && *st == kSsdStatusOk);
    std::vector<std::byte> got(kSsdSectorSize);
    CXLPOOL_CHECK_OK(co_await rack.pod().host(0).ReadFresh(readback, got));
    co_return got == x;
  };
  EXPECT_TRUE(RunBlocking(loop, t(rack, loop)));
  rack.Shutdown();
  loop.RunFor(200 * kMicrosecond);
}

TEST(SsdDeviceTest, FlashLatencyIsTensOfMicroseconds) {
  sim::EventLoop loop;
  RackConfig rc = TinyRack();
  rc.ssds_per_host = 1;
  Rack rack(loop, rc);
  rack.Start();
  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<Nanos> {
    auto lease = rack.AcquireDevice(HostId(0), core::DeviceType::kSsd);
    CXLPOOL_CHECK_OK(lease.status());
    auto ssd = co_await core::VirtualSsd::Create(rack.pod().host(0),
                                                 std::move(lease->mmio), {});
    CXLPOOL_CHECK_OK(ssd.status());
    auto seg = rack.pod().pool().Allocate(16 * kKiB);
    Nanos start = loop.now();
    auto st = co_await (*ssd)->ReadBlocks(0, 8, seg->base, loop.now() + kSecond);
    CXLPOOL_CHECK(st.ok() && *st == kSsdStatusOk);
    co_return loop.now() - start;
  };
  Nanos took = RunBlocking(loop, t(rack, loop));
  EXPECT_GT(took, 30 * kMicrosecond);
  EXPECT_LT(took, 300 * kMicrosecond);
  rack.Shutdown();
  loop.RunFor(200 * kMicrosecond);
}

// --- Accelerator multi-queue-pair ---

TEST(AccelDeviceTest, QueuePairAllocation) {
  sim::EventLoop loop;
  AccelConfig config;
  Accelerator accel(PcieDeviceId(1), "a", loop, config);
  std::vector<int> qps;
  for (int i = 0; i < kAccelMaxQp; ++i) {
    auto qp = accel.AllocateQueuePair();
    ASSERT_TRUE(qp.ok());
    qps.push_back(*qp);
  }
  EXPECT_EQ(accel.AllocateQueuePair().status().code(),
            StatusCode::kResourceExhausted);
  accel.ReleaseQueuePair(qps[5]);
  auto again = accel.AllocateQueuePair();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 5);
}

TEST(AccelDeviceTest, TwoHostsConcurrentQueuePairs) {
  sim::EventLoop loop;
  RackConfig rc = TinyRack();
  rc.accels = 1;
  Rack rack(loop, rc);
  rack.Start();

  auto run = [](Rack& rack, HostId host, int qp, uint8_t fill) -> Task<bool> {
    sim::EventLoop& loop = rack.loop();
    auto path = rack.orchestrator().MakeMmioPath(host, rack.accel(0)->id());
    CXLPOOL_CHECK_OK(path.status());
    auto accel = co_await core::VirtualAccel::Create(rack.pod().host(host),
                                                     std::move(*path), {}, qp);
    CXLPOOL_CHECK_OK(accel.status());
    auto seg = rack.pod().pool().Allocate(32 * kKiB);
    CXLPOOL_CHECK_OK(seg.status());
    std::vector<std::byte> in(4096, std::byte{fill});
    CXLPOOL_CHECK_OK(co_await rack.pod().host(host).StoreNt(seg->base, in));
    auto st = co_await (*accel)->RunJob(seg->base, 4096, seg->base + 16 * kKiB,
                                        loop.now() + kSecond);
    CXLPOOL_CHECK(st.ok() && *st == 0);
    std::vector<std::byte> out(4096);
    CXLPOOL_CHECK_OK(
        co_await rack.pod().host(host).ReadFresh(seg->base + 16 * kKiB, out));
    co_return out[0] == (std::byte{fill} ^ std::byte{0x5a});
  };

  bool ok0 = false;
  bool ok1 = false;
  auto both = [&]() -> Task<> {
    // Run concurrently on distinct queue pairs of the same device.
    auto q0 = rack.accel(0)->AllocateQueuePair();
    auto q1 = rack.accel(0)->AllocateQueuePair();
    CXLPOOL_CHECK_OK(q0.status());
    CXLPOOL_CHECK_OK(q1.status());
    bool done0 = false;
    sim::Spawn([](Task<bool> t, bool& out, bool& flag) -> Task<> {
      out = co_await std::move(t);
      flag = true;
    }(run(rack, HostId(0), *q0, 0x11), ok0, done0));
    ok1 = co_await run(rack, HostId(1), *q1, 0x22);
    while (!done0) {
      co_await sim::Delay(loop, 10 * kMicrosecond);
    }
  };
  RunBlocking(loop, both());
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
  rack.Shutdown();
  loop.RunFor(200 * kMicrosecond);
}

}  // namespace
}  // namespace cxlpool::devices
