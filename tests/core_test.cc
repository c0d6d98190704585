#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/sim/random.h"
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

// Forwards to `inner` and records every value written to register `reg`,
// at the instant the write is issued.
class RecordingMmioPath : public MmioPath {
 public:
  RecordingMmioPath(std::unique_ptr<MmioPath> inner, uint64_t reg,
                    std::vector<uint64_t>* log)
      : inner_(std::move(inner)), reg_(reg), log_(log) {}

  sim::Task<Status> Write(uint64_t reg, uint64_t value, obs::TraceContext parent = {},
                          Nanos deadline = 0) override {
    if (reg == reg_) {
      log_->push_back(value);
    }
    return inner_->Write(reg, value, parent, deadline);
  }
  sim::Task<Result<uint64_t>> Read(uint64_t reg, obs::TraceContext parent = {},
                                   Nanos deadline = 0) override {
    return inner_->Read(reg, parent, deadline);
  }
  bool is_remote() const override { return inner_->is_remote(); }

 private:
  std::unique_ptr<MmioPath> inner_;
  uint64_t reg_;
  std::vector<uint64_t>* log_;
};

RackConfig SmallRack(int hosts = 3, int nics_per_host = 1) {
  RackConfig rc;
  rc.pod.num_hosts = hosts;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 32 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.nics_per_host = nics_per_host;
  return rc;
}

class CoreTest : public ::testing::Test {
 protected:
  void Drain() {
    rack_->Shutdown();
    loop_.RunFor(200 * kMicrosecond);
  }

  sim::EventLoop loop_;
  std::unique_ptr<Rack> rack_;
};

// --- MMIO forwarding ---

TEST_F(CoreTest, ForwardedMmioReachesDevice) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  DummyDevice dev(PcieDeviceId(77), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  auto path = rack_->orchestrator().MakeMmioPath(HostId(2), PcieDeviceId(77));
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE((*path)->is_remote());

  auto t = [](MmioPath& p) -> Task<uint64_t> {
    CXLPOOL_CHECK_OK(co_await p.Write(0x10, 0xabcd));
    auto v = co_await p.Read(0x10);
    CXLPOOL_CHECK(v.ok());
    co_return *v;
  };
  EXPECT_EQ(RunBlocking(loop_, t(**path)), 0xabcdu);
  EXPECT_EQ(dev.regs[0x10], 0xabcdu);
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "agent.forwarded_writes", HostLabels(0)), 1u);
  Drain();
}

TEST_F(CoreTest, LocalMmioPathIsDirect) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  DummyDevice dev(PcieDeviceId(77), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  auto path = rack_->orchestrator().MakeMmioPath(HostId(0), PcieDeviceId(77));
  ASSERT_TRUE(path.ok());
  EXPECT_FALSE((*path)->is_remote());
  Drain();
}

TEST_F(CoreTest, RemoteMmioCostsMoreThanLocal) {
  // E8's claim in miniature: a forwarded doorbell costs a channel RTT on
  // top of the local MMIO write.
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  DummyDevice dev(PcieDeviceId(77), loop_);
  dev.AttachTo(&rack_->pod().host(0));
  rack_->orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack_->Start();

  auto local = rack_->orchestrator().MakeMmioPath(HostId(0), PcieDeviceId(77));
  auto remote = rack_->orchestrator().MakeMmioPath(HostId(1), PcieDeviceId(77));
  ASSERT_TRUE(local.ok() && remote.ok());

  auto timed_write = [](sim::EventLoop& loop, MmioPath& p) -> Task<Nanos> {
    Nanos start = loop.now();
    CXLPOOL_CHECK_OK(co_await p.Write(0x8, 1));
    co_return loop.now() - start;
  };
  Nanos t_local = RunBlocking(loop_, timed_write(loop_, **local));
  Nanos t_remote = RunBlocking(loop_, timed_write(loop_, **remote));
  // A forwarded doorbell pays one shared-memory channel round trip (two
  // sub-microsecond ring traversals) on top of the local MMIO write.
  EXPECT_GE(t_remote, t_local + 700);
  EXPECT_LT(t_remote, 10 * kMicrosecond);
  Drain();
}

// --- DriverRing ---

TEST(DriverRingTest, DoorbellCoversOnlyTheGaplessPrefix) {
  DriverRing ring(/*base=*/0x1000, /*entries=*/8, /*entry_size=*/32);
  uint64_t s0 = ring.Claim();
  uint64_t s1 = ring.Claim();
  EXPECT_EQ(ring.SlotAddr(s0), 0x1000u);
  EXPECT_EQ(ring.SlotAddr(s1), 0x1020u);
  EXPECT_EQ(ring.SlotAddr(s0 + 8), 0x1000u);  // slots wrap
  EXPECT_EQ(ring.Published(s1), 0u);          // slot 0 is still a gap
  EXPECT_EQ(ring.Published(s0), 2u);
  EXPECT_EQ(ring.TakeUnannounced(), 0u);
}

TEST(DriverRingTest, BatchesThenFlushesTheRemainderOnce) {
  DriverRing ring(0, 8, 32);
  std::vector<uint64_t> rung;
  for (int i = 0; i < 3; ++i) {
    rung.push_back(ring.Published(ring.Claim(), /*batch=*/3));
  }
  EXPECT_EQ(rung, (std::vector<uint64_t>{0, 0, 3}));
  EXPECT_EQ(ring.Published(ring.Claim(), 3), 0u);
  EXPECT_EQ(ring.TakeUnannounced(), 4u);
  EXPECT_EQ(ring.TakeUnannounced(), 0u);
}

TEST(DriverRingTest, AnnouncedValuesStrictlyIncreaseAcrossWraps) {
  // Two posters at a time finish out of order, as flow control allows:
  // never more than `entries` claimed-but-unannounced slots.
  DriverRing ring(0, 4, 32);
  uint64_t last = 0;
  for (int round = 0; round < 10; ++round) {
    uint64_t a = ring.Claim();
    uint64_t b = ring.Claim();
    EXPECT_EQ(ring.Published(b), 0u);
    uint64_t value = ring.Published(a);
    EXPECT_EQ(value, b + 1);
    EXPECT_GT(value, last);
    last = value;
  }
}

TEST(DriverRingTest, ResetStartsAFreshGeneration) {
  DriverRing ring(0, 4, 32);
  ring.Claim();
  uint64_t s1 = ring.Claim();
  EXPECT_EQ(ring.Published(s1), 0u);  // marked behind a gap
  uint64_t generation = ring.generation();
  ring.Reset();
  EXPECT_EQ(ring.generation(), generation + 1);
  EXPECT_EQ(ring.posted(), 0u);
  // Slot 1's mark from before the reset does not count after it.
  EXPECT_EQ(ring.Published(ring.Claim()), 1u);
  EXPECT_EQ(ring.TakeUnannounced(), 0u);
}

// --- VirtualNic datapath ---

struct EchoPair {
  Rack::VirtualNicHandle a;
  Rack::VirtualNicHandle b;
  cxl::PoolSegment buffers;
};

Task<EchoPair> SetupPair(Rack& rack, bool rings_in_cxl) {
  VirtualNic::Config vc;
  vc.rings_in_cxl = rings_in_cxl;
  vc.rx_doorbell_batch = 1;
  auto a = co_await rack.CreateVirtualNic(HostId(0), vc);
  CXLPOOL_CHECK(a.ok());
  auto b = co_await rack.CreateVirtualNic(HostId(1), vc);
  CXLPOOL_CHECK(b.ok());
  EchoPair pair{std::move(*a), std::move(*b), {}};
  auto seg = rack.pod().pool().Allocate(1 * kMiB);
  CXLPOOL_CHECK(seg.ok());
  pair.buffers = *seg;
  co_return pair;
}

TEST_F(CoreTest, FrameDeliveryLocalNics) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  rack_->Start();

  auto t = [](Rack& rack) -> Task<std::string> {
    EchoPair pair = co_await SetupPair(rack, /*rings_in_cxl=*/true);
    cxl::HostAdapter& host_a = rack.pod().host(0);
    cxl::HostAdapter& host_b = rack.pod().host(1);

    // Receiver posts a buffer.
    uint64_t rx_buf = pair.buffers.base;
    CXLPOOL_CHECK_OK(co_await pair.b.vnic->PostRxBuffer(rx_buf, 2048));
    CXLPOOL_CHECK_OK(co_await pair.b.vnic->FlushRxDoorbell());

    // Sender publishes a payload and transmits.
    uint64_t tx_buf = pair.buffers.base + 4096;
    const char msg[] = "over the wire";
    std::vector<std::byte> payload(sizeof(msg));
    std::memcpy(payload.data(), msg, sizeof(msg));
    CXLPOOL_CHECK_OK(co_await host_a.StoreNt(tx_buf, payload));
    CXLPOOL_CHECK_OK(co_await pair.a.vnic->SendFrame(pair.b.mac, tx_buf,
                                                     sizeof(msg)));

    auto ev = co_await pair.b.vnic->PollRx(rack.loop().now() + kMillisecond);
    CXLPOOL_CHECK(ev.ok());
    CXLPOOL_CHECK(ev->len == sizeof(msg));
    std::vector<std::byte> got(ev->len);
    CXLPOOL_CHECK_OK(co_await host_b.ReadFresh(ev->buf_addr, got));
    co_return std::string(reinterpret_cast<const char*>(got.data()));
  };
  EXPECT_EQ(RunBlocking(loop_, t(*rack_)), "over the wire");
  Drain();
}

TEST_F(CoreTest, RemoteNicDatapathWorks) {
  // Host 2 has no NIC of its own (0 per host beyond hosts 0/1 would be
  // cleaner, but simplest: host 2 acquires after its local NIC is leased
  // out is complex — instead build a rack where only hosts 0 and 1 have
  // NICs by giving the rack 2 NIC-hosts and 1 NIC-less host).
  RackConfig rc = SmallRack(/*hosts=*/2, /*nics_per_host=*/1);
  rc.pod.num_hosts = 3;
  rack_ = std::make_unique<Rack>(loop_, rc);
  // Rack attached one NIC per host for all 3 hosts with nics_per_host=1;
  // force host 2's NIC to be heavily "utilized" is intricate — simply
  // verify the forwarded path by acquiring host 0's NIC explicitly.
  rack_->Start();

  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<bool> {
    // Build a vNIC on host 2 explicitly bound to host 0's NIC (device 0).
    auto mmio = rack.orchestrator().MakeMmioPath(HostId(2), PcieDeviceId(0));
    CXLPOOL_CHECK(mmio.ok());
    VirtualNic::Config vc;
    vc.rings_in_cxl = true;  // required: host 2 cannot offer its DRAM to NIC 0
    vc.rx_doorbell_batch = 1;
    auto vnic = co_await VirtualNic::Create(rack.pod().host(2), std::move(*mmio), vc);
    CXLPOOL_CHECK(vnic.ok());

    // Receiver on host 1 with its local NIC (device 1).
    auto rx_mmio = rack.orchestrator().MakeMmioPath(HostId(1), PcieDeviceId(1));
    CXLPOOL_CHECK(rx_mmio.ok());
    auto rx_vnic =
        co_await VirtualNic::Create(rack.pod().host(1), std::move(*rx_mmio), vc);
    CXLPOOL_CHECK(rx_vnic.ok());

    auto seg = rack.pod().pool().Allocate(64 * kKiB);
    CXLPOOL_CHECK(seg.ok());
    CXLPOOL_CHECK_OK(co_await (*rx_vnic)->PostRxBuffer(seg->base, 2048));
    CXLPOOL_CHECK_OK(co_await (*rx_vnic)->FlushRxDoorbell());

    uint64_t tx_buf = seg->base + 4096;
    std::vector<std::byte> payload(100, std::byte{0x42});
    CXLPOOL_CHECK_OK(co_await rack.pod().host(2).StoreNt(tx_buf, payload));
    // The doorbell inside SendFrame travels over the forwarding channel.
    CXLPOOL_CHECK_OK(co_await (*vnic)->SendFrame(rack.nic(1)->mac(), tx_buf, 100));

    auto ev = co_await (*rx_vnic)->PollRx(loop.now() + kMillisecond);
    CXLPOOL_CHECK(ev.ok());
    std::vector<std::byte> got(ev->len);
    CXLPOOL_CHECK_OK(co_await rack.pod().host(1).ReadFresh(ev->buf_addr, got));
    co_return got.size() == 100 && got[0] == std::byte{0x42};
  };
  EXPECT_TRUE(RunBlocking(loop_, t(*rack_, loop_)));
  // The remote host's doorbells were executed by host 0's agent.
  EXPECT_GE(CounterValue(rack_->pod().metrics(), "agent.forwarded_writes", HostLabels(0)), 8u);
  Drain();
}

TEST_F(CoreTest, RxDoorbellRingsPerBatchAndOnFlush) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  rack_->Start();

  std::vector<uint64_t> rung;
  auto t = [](Rack& rack, std::vector<uint64_t>& rung) -> Task<> {
    auto mmio = rack.orchestrator().MakeMmioPath(HostId(0), PcieDeviceId(0));
    CXLPOOL_CHECK(mmio.ok());
    VirtualNic::Config vc;
    vc.rx_doorbell_batch = 4;
    auto vnic = co_await VirtualNic::Create(
        rack.pod().host(0),
        std::make_unique<RecordingMmioPath>(std::move(*mmio), devices::kNicRegRxDoorbell,
                                            &rung),
        vc);
    CXLPOOL_CHECK(vnic.ok());
    auto seg = rack.pod().pool().Allocate(64 * kKiB);
    CXLPOOL_CHECK(seg.ok());
    for (uint64_t i = 0; i < 10; ++i) {
      CXLPOOL_CHECK_OK(co_await (*vnic)->PostRxBuffer(seg->base + i * 2048, 2048));
    }
    CXLPOOL_CHECK_OK(co_await (*vnic)->FlushRxDoorbell());
    CXLPOOL_CHECK_OK(co_await (*vnic)->FlushRxDoorbell());  // nothing left to ring
  };
  RunBlocking(loop_, t(*rack_, rung));
  EXPECT_EQ(rung, (std::vector<uint64_t>{4, 8, 10}));
  Drain();
}

TEST_F(CoreTest, ConcurrentRxPostsTakeDistinctSlots) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack());
  rack_->Start();

  auto t = [](Rack& rack) -> Task<std::vector<uint64_t>> {
    EchoPair pair = co_await SetupPair(rack, /*rings_in_cxl=*/true);
    VirtualNic& rx = *pair.b.vnic;
    uint64_t base = pair.buffers.base;
    // Both posts start before either descriptor's publish lands.
    auto post = [](VirtualNic& nic, uint64_t buf) -> Task<> {
      CXLPOOL_CHECK_OK(co_await nic.PostRxBuffer(buf, 2048));
    };
    Spawn(post(rx, base));
    Spawn(post(rx, base + 4096));
    co_await sim::Delay(rack.loop(), 10 * kMicrosecond);
    CXLPOOL_CHECK_OK(co_await rx.FlushRxDoorbell());

    uint64_t tx_buf = base + 16 * kKiB;
    std::vector<std::byte> payload(64, std::byte{0x7});
    CXLPOOL_CHECK_OK(co_await rack.pod().host(0).StoreNt(tx_buf, payload));
    for (int i = 0; i < 2; ++i) {
      CXLPOOL_CHECK_OK(co_await pair.a.vnic->SendFrame(pair.b.mac, tx_buf, 64));
    }
    std::vector<uint64_t> got;
    for (int i = 0; i < 2; ++i) {
      auto ev = co_await rx.PollRx(rack.loop().now() + kMillisecond);
      got.push_back(ev.ok() ? ev->buf_addr : 0);
    }
    co_return got;
  };
  std::vector<uint64_t> got = RunBlocking(loop_, t(*rack_));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0], 0u);
  EXPECT_NE(got[1], 0u);
  EXPECT_NE(got[0], got[1]);
  Drain();
}

// --- VirtualSsd ---

TEST_F(CoreTest, SsdWriteReadRoundTrip) {
  RackConfig rc = SmallRack(2);
  rc.ssds_per_host = 1;
  rack_ = std::make_unique<Rack>(loop_, rc);
  rack_->Start();

  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<bool> {
    auto lease = rack.AcquireDevice(HostId(0), DeviceType::kSsd);
    CXLPOOL_CHECK(lease.ok());
    VirtualSsd::Config sc;
    sc.rings_in_cxl = true;
    auto ssd = co_await VirtualSsd::Create(rack.pod().host(0),
                                           std::move(lease->mmio), sc);
    CXLPOOL_CHECK(ssd.ok());

    auto seg = rack.pod().pool().Allocate(64 * kKiB);
    CXLPOOL_CHECK(seg.ok());
    uint64_t buf = seg->base;
    std::vector<std::byte> data(4 * devices::kSsdSectorSize);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = std::byte{static_cast<uint8_t>(i * 13)};
    }
    CXLPOOL_CHECK_OK(co_await rack.pod().host(0).StoreNt(buf, data));

    auto wst = co_await (*ssd)->WriteBlocks(8, 4, buf, loop.now() + kSecond);
    CXLPOOL_CHECK(wst.ok());
    CXLPOOL_CHECK(*wst == devices::kSsdStatusOk);

    // Read back into a different buffer.
    uint64_t buf2 = seg->base + 8 * kKiB;
    auto rst = co_await (*ssd)->ReadBlocks(8, 4, buf2, loop.now() + kSecond);
    CXLPOOL_CHECK(rst.ok());
    CXLPOOL_CHECK(*rst == devices::kSsdStatusOk);

    std::vector<std::byte> got(data.size());
    CXLPOOL_CHECK_OK(co_await rack.pod().host(0).ReadFresh(buf2, got));
    co_return std::memcmp(got.data(), data.data(), data.size()) == 0;
  };
  EXPECT_TRUE(RunBlocking(loop_, t(*rack_, loop_)));
  Drain();
}

TEST_F(CoreTest, SsdRejectsBadLba) {
  RackConfig rc = SmallRack(2);
  rc.ssds_per_host = 1;
  rack_ = std::make_unique<Rack>(loop_, rc);
  rack_->Start();

  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<uint16_t> {
    auto lease = rack.AcquireDevice(HostId(0), DeviceType::kSsd);
    CXLPOOL_CHECK(lease.ok());
    auto ssd = co_await VirtualSsd::Create(rack.pod().host(0),
                                           std::move(lease->mmio), {});
    CXLPOOL_CHECK(ssd.ok());
    auto seg = rack.pod().pool().Allocate(4 * kKiB);
    auto st = co_await (*ssd)->ReadBlocks(1u << 30, 4, seg->base,
                                          loop.now() + kSecond);
    CXLPOOL_CHECK(st.ok());
    co_return *st;
  };
  EXPECT_EQ(RunBlocking(loop_, t(*rack_, loop_)), devices::kSsdStatusLbaOutOfRange);
  Drain();
}

TEST_F(CoreTest, QueuePairRebindDuringSubmitAbortsTheStaleCommand) {
  RackConfig rc = SmallRack(2);
  rc.ssds_per_host = 1;
  rack_ = std::make_unique<Rack>(loop_, rc);
  rack_->Start();

  std::optional<Result<uint16_t>> first;
  auto t = [](Rack& rack, sim::EventLoop& loop,
              std::optional<Result<uint16_t>>& first) -> Task<Result<uint16_t>> {
    auto lease = rack.AcquireDevice(HostId(0), DeviceType::kSsd);
    CXLPOOL_CHECK(lease.ok());
    VirtualSsd::Config sc;
    sc.rings_in_cxl = true;
    auto ssd = co_await VirtualSsd::Create(rack.pod().host(0), std::move(lease->mmio), sc);
    CXLPOOL_CHECK(ssd.ok());
    auto path = rack.orchestrator().MakeMmioPath(HostId(0), lease->assignment.device);
    CXLPOOL_CHECK(path.ok());
    auto seg = rack.pod().pool().Allocate(64 * kKiB);
    CXLPOOL_CHECK(seg.ok());

    // The first read claims slot 0 and suspends in its publish; the Rebind
    // resets the queue pair before that publish lands.
    auto read = [](VirtualSsd& ssd, uint64_t buf, Nanos deadline,
                   std::optional<Result<uint16_t>>& out) -> Task<> {
      out = co_await ssd.ReadBlocks(0, 4, buf, deadline);
    };
    Spawn(read(**ssd, seg->base, loop.now() + kMillisecond, first));
    CXLPOOL_CHECK_OK(co_await (*ssd)->Rebind(std::move(*path)));
    // Long enough for a stale command, had it rung, to complete and be
    // reaped before the next submit.
    co_await sim::Delay(loop, 100 * kMicrosecond);
    co_return co_await (*ssd)->ReadBlocks(0, 4, seg->base + 8 * kKiB,
                                          loop.now() + kMillisecond);
  };
  Result<uint16_t> second = RunBlocking(loop_, t(*rack_, loop_, first));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status().code(), StatusCode::kAborted);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, devices::kSsdStatusOk);
  Drain();
}

// --- VirtualAccel ---

TEST_F(CoreTest, AcceleratorTransformsData) {
  RackConfig rc = SmallRack(3);
  rc.accels = 1;
  rc.accel_home = 0;
  rack_ = std::make_unique<Rack>(loop_, rc);
  rack_->Start();

  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<bool> {
    // Host 2 uses the accelerator that lives on host 0 (disaggregation).
    auto lease = rack.AcquireDevice(HostId(2), DeviceType::kAccel);
    CXLPOOL_CHECK(lease.ok());
    CXLPOOL_CHECK(lease->assignment.home == HostId(0));
    auto accel = co_await VirtualAccel::Create(rack.pod().host(2),
                                               std::move(lease->mmio), {});
    CXLPOOL_CHECK(accel.ok());

    auto seg = rack.pod().pool().Allocate(64 * kKiB);
    std::vector<std::byte> input(1000);
    for (size_t i = 0; i < input.size(); ++i) {
      input[i] = std::byte{static_cast<uint8_t>(i)};
    }
    CXLPOOL_CHECK_OK(co_await rack.pod().host(2).StoreNt(seg->base, input));
    uint64_t out_addr = seg->base + 8 * kKiB;
    auto st = co_await (*accel)->RunJob(seg->base, 1000, out_addr,
                                        loop.now() + kSecond);
    CXLPOOL_CHECK(st.ok());
    CXLPOOL_CHECK(*st == 0);

    std::vector<std::byte> output(1000);
    CXLPOOL_CHECK_OK(co_await rack.pod().host(2).ReadFresh(out_addr, output));
    for (size_t i = 0; i < output.size(); ++i) {
      if (output[i] != (input[i] ^ std::byte{0x5a})) {
        co_return false;
      }
    }
    co_return true;
  };
  EXPECT_TRUE(RunBlocking(loop_, t(*rack_, loop_)));
  Drain();
}

// --- Orchestrator policy ---

TEST_F(CoreTest, AcquirePrefersLocalDevice) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack(3));
  rack_->Start();
  auto a = rack_->orchestrator().Acquire(HostId(1), DeviceType::kNic);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->home, HostId(1));
  EXPECT_TRUE(a->local);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "orch.local_hits"), 1u);
  Drain();
}

TEST_F(CoreTest, AcquireFallsBackToLeastUtilized) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack(3));
  rack_->Start();
  // Break host 1's local NIC; acquisition must go remote.
  rack_->nic(1)->InjectFailure();
  loop_.RunFor(100 * kMicrosecond);  // let the agent report it unhealthy
  auto a = rack_->orchestrator().Acquire(HostId(1), DeviceType::kNic);
  ASSERT_TRUE(a.ok());
  EXPECT_NE(a->home, HostId(1));
  EXPECT_FALSE(a->local);
  Drain();
}

TEST_F(CoreTest, AcquireFailsWhenNoDevices) {
  RackConfig rc = SmallRack(2);
  rc.ssds_per_host = 0;
  rack_ = std::make_unique<Rack>(loop_, rc);
  rack_->Start();
  auto a = rack_->orchestrator().Acquire(HostId(0), DeviceType::kSsd);
  EXPECT_EQ(a.status().code(), StatusCode::kResourceExhausted);
  Drain();
}

TEST_F(CoreTest, ReleaseReturnsLease) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack(2));
  rack_->Start();
  auto a = rack_->orchestrator().Acquire(HostId(0), DeviceType::kNic);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(rack_->orchestrator().record(a->device)->lessees.size(), 1u);
  EXPECT_TRUE(rack_->orchestrator().Release(HostId(0), a->device).ok());
  EXPECT_EQ(rack_->orchestrator().record(a->device)->lessees.size(), 0u);
  EXPECT_EQ(rack_->orchestrator().Release(HostId(0), a->device).code(),
            StatusCode::kFailedPrecondition);
  Drain();
}

// --- Failover (E6 in miniature) ---

TEST_F(CoreTest, NicLinkFailureTriggersMigration) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack(3));
  rack_->Start();

  auto a = rack_->orchestrator().Acquire(HostId(1), DeviceType::kNic);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->device, PcieDeviceId(1));  // local NIC

  PcieDeviceId migrated_to;
  Nanos migrated_at = -1;
  rack_->orchestrator().agent(HostId(1))->SetMigrationHandler(
      [&](PcieDeviceId old_dev, PcieDeviceId new_dev, HostId) -> Task<> {
        EXPECT_EQ(old_dev, PcieDeviceId(1));
        migrated_to = new_dev;
        migrated_at = loop_.now();
        co_return;
      });

  Nanos failed_at = 500 * kMicrosecond;
  loop_.RunUntil(failed_at);
  rack_->nic(1)->InjectLinkFailure();
  loop_.RunFor(300 * kMicrosecond);

  ASSERT_TRUE(migrated_to.valid());
  EXPECT_NE(migrated_to, PcieDeviceId(1));
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "orch.failovers"), 1u);
  // Detection (MMIO link poll) + report + migration RPC: well under 100 us.
  EXPECT_LT(migrated_at - failed_at, 100 * kMicrosecond);
  // The lease moved in the registry too.
  EXPECT_TRUE(rack_->orchestrator().record(migrated_to)->lessees.size() == 1);
  EXPECT_TRUE(rack_->orchestrator().record(PcieDeviceId(1))->lessees.empty());
  Drain();
}

TEST_F(CoreTest, RepairedDeviceBecomesEligibleAgain) {
  rack_ = std::make_unique<Rack>(loop_, SmallRack(2));
  rack_->Start();
  rack_->nic(0)->InjectLinkFailure();
  loop_.RunFor(100 * kMicrosecond);
  EXPECT_FALSE(rack_->orchestrator().record(PcieDeviceId(0))->healthy);
  rack_->nic(0)->RepairLink();
  loop_.RunFor(100 * kMicrosecond);
  EXPECT_TRUE(rack_->orchestrator().record(PcieDeviceId(0))->healthy);
  Drain();
}

// --- Load rebalancing (E7 in miniature) ---

TEST_F(CoreTest, RebalanceShedsOverloadedDevice) {
  RackConfig rc = SmallRack(2);
  rc.orch.overload_threshold = 0.5;
  rack_ = std::make_unique<Rack>(loop_, rc);

  // Register two fake "utilization" sources the agents will report.
  double util0 = 0.9;
  double util1 = 0.1;
  DummyDevice hot(PcieDeviceId(50), loop_);
  hot.AttachTo(&rack_->pod().host(0));
  DummyDevice cold(PcieDeviceId(51), loop_);
  cold.AttachTo(&rack_->pod().host(1));
  rack_->orchestrator().RegisterDevice(HostId(0), &hot, DeviceType::kAccel,
                                       [&] { return util0; });
  rack_->orchestrator().RegisterDevice(HostId(1), &cold, DeviceType::kAccel,
                                       [&] { return util1; });
  rack_->Start();

  auto a = rack_->orchestrator().Acquire(HostId(0), DeviceType::kAccel);
  ASSERT_TRUE(a.ok());

  bool migrated = false;
  rack_->orchestrator().agent(HostId(0))->SetMigrationHandler(
      [&](PcieDeviceId, PcieDeviceId new_dev, HostId) -> Task<> {
        migrated = true;
        EXPECT_EQ(new_dev, PcieDeviceId(51));
        co_return;
      });

  // Let reports land, then force a rebalance scan.
  loop_.RunFor(100 * kMicrosecond);
  RunBlocking(loop_, rack_->orchestrator().RebalanceOnce());
  loop_.RunFor(100 * kMicrosecond);

  EXPECT_TRUE(migrated);
  EXPECT_EQ(CounterValue(rack_->pod().metrics(), "orch.rebalances"), 1u);
  EXPECT_EQ(rack_->orchestrator().record(PcieDeviceId(51))->lessees.size(), 1u);
  Drain();
}

// --- Wire codec robustness ---
// A partition delivers truncated, duplicated, and bit-flipped frames to
// every control-plane decoder. Each must come back as a typed error or a
// (harmless) successful parse — never a CHECK failure or a wild read.

TEST(WireFuzzTest, ReportWireRoundTripAndTruncation) {
  std::vector<DeviceStatus> statuses(3);
  for (int i = 0; i < 3; ++i) {
    statuses[i].device = PcieDeviceId(40 + i);
    statuses[i].type = i == 0 ? DeviceType::kNic : DeviceType::kAccel;
    statuses[i].healthy = i != 1;
    statuses[i].utilization = 0.25 * i;
    statuses[i].fault_episodes = static_cast<uint32_t>(i);
  }
  std::vector<std::byte> frame =
      report_wire::Encode(HostId(2), 0xABCDull, statuses);

  auto full = report_wire::Decode(frame);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->reporter, HostId(2));
  EXPECT_EQ(full->peer_mask, 0xABCDull);
  ASSERT_EQ(full->statuses.size(), 3u);
  EXPECT_EQ(full->statuses[2].device, PcieDeviceId(42));
  EXPECT_FALSE(full->statuses[1].healthy);

  // Every proper prefix must be a typed error (a truncated status array or
  // header), not a crash.
  for (size_t len = 0; len < frame.size(); ++len) {
    auto r = report_wire::Decode(std::span<const std::byte>(frame).first(len));
    EXPECT_FALSE(r.ok()) << "prefix length " << len;
  }
}

TEST(WireFuzzTest, ReportWireHugeCountRejected) {
  // Regression: a frame whose count field promises 2^32-1 statuses must be
  // refused by the length check, not walked off the end (the count*size
  // product overflows 32 bits).
  std::vector<std::byte> frame =
      report_wire::Encode(HostId(1), ~0ull, {});
  ASSERT_GE(frame.size(), 16u);
  frame[12] = std::byte{0xff};
  frame[13] = std::byte{0xff};
  frame[14] = std::byte{0xff};
  frame[15] = std::byte{0xff};
  EXPECT_FALSE(report_wire::Decode(frame).ok());
}

TEST(WireFuzzTest, EpochAndMigrateWireTruncation) {
  std::vector<std::byte> epoch = epoch_wire::Encode(PcieDeviceId(7), 42);
  auto e = epoch_wire::Decode(epoch);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->device, PcieDeviceId(7));
  EXPECT_EQ(e->epoch, 42u);
  for (size_t len = 0; len < epoch.size(); ++len) {
    EXPECT_FALSE(
        epoch_wire::Decode(std::span<const std::byte>(epoch).first(len)).ok());
  }

  std::vector<std::byte> mig =
      migrate_wire::Encode(PcieDeviceId(1), PcieDeviceId(2), HostId(3));
  auto m = migrate_wire::Decode(mig);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->new_home, HostId(3));
  for (size_t len = 0; len < mig.size(); ++len) {
    EXPECT_FALSE(
        migrate_wire::Decode(std::span<const std::byte>(mig).first(len)).ok());
  }
}

TEST(WireFuzzTest, MmioWireTruncation) {
  std::vector<std::byte> wr =
      mmio_wire::EncodeWrite(PcieDeviceId(9), 3, 77, 5, 0x10, 0xbeef);
  auto d = mmio_wire::Decode(wr, /*is_write=*/true);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->value, 0xbeefu);
  EXPECT_EQ(d->seq, 5u);
  for (size_t len = 0; len < wr.size(); ++len) {
    EXPECT_FALSE(
        mmio_wire::Decode(std::span<const std::byte>(wr).first(len), true).ok());
  }
  std::vector<std::byte> rd =
      mmio_wire::EncodeRead(PcieDeviceId(9), 3, 77, 6, 0x18);
  ASSERT_TRUE(mmio_wire::Decode(rd, /*is_write=*/false).ok());
  for (size_t len = 0; len < rd.size(); ++len) {
    EXPECT_FALSE(
        mmio_wire::Decode(std::span<const std::byte>(rd).first(len), false)
            .ok());
  }
}

TEST(WireFuzzTest, SeededBitFlipsNeverCrashDecoders) {
  std::vector<DeviceStatus> statuses(2);
  statuses[0].device = PcieDeviceId(50);
  statuses[1].device = PcieDeviceId(51);
  const std::vector<std::byte> report =
      report_wire::Encode(HostId(1), 0x5ull, statuses);
  const std::vector<std::byte> epoch = epoch_wire::Encode(PcieDeviceId(4), 9);
  const std::vector<std::byte> mmio =
      mmio_wire::EncodeWrite(PcieDeviceId(4), 9, 1, 1, 0x20, 1);

  sim::Rng rng(0xF1157);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> f = report;
    int flips = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < flips; ++i) {
      size_t bit = rng.UniformInt(f.size() * 8);
      f[bit / 8] ^= std::byte(1u << (bit % 8));
    }
    (void)report_wire::Decode(f);  // must not crash; result may be either

    std::vector<std::byte> g = (iter % 2 == 0) ? epoch : mmio;
    size_t bit = rng.UniformInt(g.size() * 8);
    g[bit / 8] ^= std::byte(1u << (bit % 8));
    if (iter % 2 == 0) {
      (void)epoch_wire::Decode(g);
    } else {
      (void)mmio_wire::Decode(g, /*is_write=*/true);
    }
  }
  // Duplicated payload tails must also parse or reject cleanly.
  std::vector<std::byte> doubled = report;
  doubled.insert(doubled.end(), report.begin(), report.end());
  (void)report_wire::Decode(doubled);
}

}  // namespace
}  // namespace cxlpool::core
