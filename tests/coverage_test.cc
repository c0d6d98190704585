// Focused coverage of utilities and subtle cross-module behaviours not
// exercised by the per-module suites: polling backoff, windowed
// utilization, dirty-eviction writeback semantics, RPC call serialization,
// out-of-order queue-pair completions, and concurrent SendFrame ordering.
#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/msg/rpc.h"
#include "src/sim/poll.h"
#include "src/sim/task.h"
#include "src/sim/windowed.h"
#include "tests/test_metrics.h"

namespace cxlpool {
namespace {

using core::DeviceType;
using core::Rack;
using core::RackConfig;
using sim::RunBlocking;
using sim::Spawn;
using sim::Task;

// --- PollBackoff ---

TEST(PollBackoffTest, DoublesUpToMax) {
  sim::PollBackoff b(100, 900);
  EXPECT_EQ(b.NextDelay(), 100);
  EXPECT_EQ(b.NextDelay(), 200);
  EXPECT_EQ(b.NextDelay(), 400);
  EXPECT_EQ(b.NextDelay(), 800);
  EXPECT_EQ(b.NextDelay(), 900);  // clamped
  EXPECT_EQ(b.NextDelay(), 900);
}

TEST(PollBackoffTest, ResetRestoresMin) {
  sim::PollBackoff b(50, 1000);
  b.NextDelay();
  b.NextDelay();
  b.Reset();
  EXPECT_EQ(b.NextDelay(), 50);
}

// --- WindowedUtilization ---

TEST(WindowedUtilizationTest, ReportsRecentWindowOnly) {
  sim::WindowedUtilization w(1000);
  // First window: 600 of 1000 ns busy.
  EXPECT_DOUBLE_EQ(w.Update(1000, 600, 1.0), 0.6);
  // Second window: idle. The stale 0.6 holds until the window closes.
  EXPECT_DOUBLE_EQ(w.Update(1500, 600, 1.0), 0.6);
  EXPECT_DOUBLE_EQ(w.Update(2000, 600, 1.0), 0.0);
}

TEST(WindowedUtilizationTest, CapacityScalesDenominator) {
  sim::WindowedUtilization w(1000);
  // 1600 busy-ns over 1000 ns with 2 engines = 80%.
  EXPECT_DOUBLE_EQ(w.Update(1000, 1600, 2.0), 0.8);
}

TEST(WindowedUtilizationTest, ClampedToOne) {
  sim::WindowedUtilization w(100);
  EXPECT_DOUBLE_EQ(w.Update(100, 500, 1.0), 1.0);
}

// --- Dirty-eviction writeback: cached stores leak to the pool when the
// cache overflows, WITHOUT an explicit flush. That is real write-back
// behaviour; the protocol still needs flushes because eviction timing is
// not under software control. ---

TEST(EvictionTest, DirtyEvictionPublishesToPool) {
  sim::EventLoop loop;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 16 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  pc.cache_lines_per_host = 4;  // tiny cache: evictions guaranteed
  cxl::CxlPod pod(loop, pc);
  auto seg = pod.pool().Allocate(64 * kKiB);
  ASSERT_TRUE(seg.ok());

  auto t = [](cxl::CxlPod& pod, uint64_t base) -> Task<int> {
    auto payload = std::vector<std::byte>(64, std::byte{0x77});
    CXLPOOL_CHECK_OK(co_await pod.host(0).Store(base, payload));  // dirty
    // Touch enough other lines to force the dirty line out.
    std::array<std::byte, 64> scratch{};
    for (int i = 1; i <= 8; ++i) {
      CXLPOOL_CHECK_OK(co_await pod.host(0).Load(base + i * 4096, scratch));
    }
    co_await sim::Delay(pod.loop(), kMicrosecond);
    std::array<std::byte, 64> seen{};
    CXLPOOL_CHECK_OK(co_await pod.host(1).ReadFresh(base, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop, t(pod, seg->base)), 0x77);
}

// --- RpcClient serializes concurrent callers ---

TEST(RpcConcurrencyTest, ConcurrentCallsAllComplete) {
  sim::EventLoop loop;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 16 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  cxl::CxlPod pod(loop, pc);
  auto ch = msg::Channel::Create(pod.pool(), pod.host(0), pod.host(1));
  ASSERT_TRUE(ch.ok());

  sim::StopToken stop;
  msg::RpcServer server(
      (*ch)->end_b(), [](uint16_t m, std::span<const std::byte> req)
                          -> Task<Result<std::vector<std::byte>>> {
        std::vector<std::byte> resp(req.begin(), req.end());
        resp.push_back(std::byte{static_cast<uint8_t>(m)});
        co_return resp;
      });
  Spawn(server.Serve(stop));

  msg::RpcClient client((*ch)->end_a());
  int done = 0;
  bool all_ok = true;
  for (int i = 0; i < 6; ++i) {
    Spawn([](msg::RpcClient& c, sim::EventLoop& l, int tag, int& count,
             bool& ok) -> Task<> {
      std::vector<std::byte> req(8, std::byte{static_cast<uint8_t>(tag)});
      auto resp = co_await c.Call(static_cast<uint16_t>(tag), req,
                                  l.now() + 50 * kMillisecond);
      if (!resp.ok() || resp->size() != 9 ||
          (*resp)[8] != std::byte{static_cast<uint8_t>(tag)} ||
          (*resp)[0] != std::byte{static_cast<uint8_t>(tag)}) {
        ok = false;
      }
      ++count;
    }(client, loop, i, done, all_ok));
  }
  loop.RunFor(100 * kMillisecond);
  EXPECT_EQ(done, 6);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(server.calls_served(), 6u);
  stop.Stop();
  loop.RunFor(kMillisecond);
}

// --- Queue-pair driver: many in-flight commands, out-of-order completion
// (SSD channels finish in lognormal order), all matched by cookie. ---

TEST(QueuePairConcurrencyTest, OutOfOrderCompletionsMatchCookies) {
  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 2;
  rc.pod.num_mhds = 1;
  rc.pod.mhd_capacity = 32 * kMiB;
  rc.pod.dram_per_host = 8 * kMiB;
  rc.ssds_per_host = 1;
  rc.ssd.channels = 8;
  rc.ssd.latency_sigma = 0.6;  // strong reordering
  Rack rack(loop, rc);
  rack.Start();

  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<int> {
    auto lease = rack.AcquireDevice(HostId(0), DeviceType::kSsd);
    CXLPOOL_CHECK_OK(lease.status());
    auto ssd = co_await core::VirtualSsd::Create(rack.pod().host(0),
                                                 std::move(lease->mmio), {});
    CXLPOOL_CHECK_OK(ssd.status());
    auto seg = rack.pod().pool().Allocate(256 * kKiB);
    CXLPOOL_CHECK_OK(seg.status());

    // Write distinct content to 16 extents concurrently.
    int completed = 0;
    bool failed = false;
    for (int i = 0; i < 16; ++i) {
      uint64_t buf = seg->base + static_cast<uint64_t>(i) * 8 * kKiB;
      std::vector<std::byte> data(devices::kSsdSectorSize,
                                  std::byte{static_cast<uint8_t>(i + 1)});
      CXLPOOL_CHECK_OK(co_await rack.pod().host(0).StoreNt(buf, data));
      Spawn([](core::VirtualSsd* s, sim::EventLoop& l, uint64_t lba, uint64_t b,
               int& count, bool& fail) -> Task<> {
        auto st = co_await s->WriteBlocks(lba, 1, b, l.now() + kSecond);
        if (!st.ok() || *st != devices::kSsdStatusOk) {
          fail = true;
        }
        ++count;
      }(ssd->get(), loop, static_cast<uint64_t>(i) * 16, buf, completed, failed));
    }
    while (completed < 16) {
      co_await sim::Delay(loop, 50 * kMicrosecond);
    }
    CXLPOOL_CHECK(!failed);

    // Read every extent back and verify content (cookie mixups would
    // surface as wrong bytes or wrong LBAs).
    int good = 0;
    for (int i = 0; i < 16; ++i) {
      uint64_t buf = seg->base + 160 * kKiB;
      auto st = co_await (*ssd)->ReadBlocks(static_cast<uint64_t>(i) * 16, 1, buf,
                                            loop.now() + kSecond);
      CXLPOOL_CHECK(st.ok() && *st == devices::kSsdStatusOk);
      std::vector<std::byte> got(devices::kSsdSectorSize);
      CXLPOOL_CHECK_OK(co_await rack.pod().host(0).ReadFresh(buf, got));
      if (got[0] == std::byte{static_cast<uint8_t>(i + 1)}) {
        ++good;
      }
    }
    co_return good;
  };
  EXPECT_EQ(RunBlocking(loop, t(rack, loop)), 16);
  rack.Shutdown();
  loop.RunFor(kMillisecond);
}

// --- Concurrent SendFrame never skips or duplicates TX descriptors ---

TEST(VirtualNicConcurrencyTest, ConcurrentSendersDeliverEveryFrame) {
  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 2;
  rc.pod.num_mhds = 1;
  rc.pod.mhd_capacity = 32 * kMiB;
  rc.pod.dram_per_host = 8 * kMiB;
  Rack rack(loop, rc);
  rack.Start();

  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<uint64_t> {
    core::VirtualNic::Config vc;
    vc.rings_in_cxl = true;
    auto tx = co_await rack.CreateVirtualNic(HostId(0), vc);
    CXLPOOL_CHECK_OK(tx.status());
    auto seg = rack.pod().pool().Allocate(64 * kKiB);
    CXLPOOL_CHECK_OK(seg.status());
    std::vector<std::byte> payload(128, std::byte{0x44});
    CXLPOOL_CHECK_OK(co_await rack.pod().host(0).StoreNt(seg->base, payload));

    constexpr int kSenders = 6;
    constexpr int kPerSender = 20;
    int done = 0;
    for (int s = 0; s < kSenders; ++s) {
      Spawn([](core::VirtualNic* nic, netsim::MacAddr dst, uint64_t buf,
               int& count) -> Task<> {
        for (int i = 0; i < kPerSender; ++i) {
          CXLPOOL_CHECK_OK(co_await nic->SendFrame(dst, buf, 128));
        }
        ++count;
      }(tx->vnic.get(), rack.nic(1)->mac(), seg->base, done));
    }
    while (done < kSenders) {
      co_await sim::Delay(loop, 50 * kMicrosecond);
    }
    // Give the NIC time to drain its TX ring.
    co_await sim::Delay(loop, 2 * kMillisecond);
    co_return CounterValue(rack.pod().metrics(), "nic.tx_frames",
                         DeviceLabels(rack.nic(0)->id().value()));
  };
  // Every frame transmitted exactly once (frames to NIC 1 are dropped for
  // lack of RX buffers there, which is fine — we count TX).
  EXPECT_EQ(RunBlocking(loop, t(rack, loop)), 120u);
  rack.Shutdown();
  loop.RunFor(kMillisecond);
}

// --- EventLoop executed() accounting ---

TEST(EventLoopAccountingTest, ExecutedCounts) {
  sim::EventLoop loop;
  for (int i = 0; i < 5; ++i) {
    loop.Schedule(i, [] {});
  }
  loop.Run();
  EXPECT_EQ(loop.executed(), 5u);
  EXPECT_TRUE(loop.empty());
}

}  // namespace
}  // namespace cxlpool
