// Cross-module integration scenarios: whole-rack stories exercising the
// datapath, control plane, and failure handling together — the system-
// level behaviours the paper's design section promises.
#include <gtest/gtest.h>

#include <cstring>

#include "src/analysis/coherence_checker.h"
#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/sim/task.h"
#include "src/stack/loadgen.h"
#include "src/stack/udp.h"
#include "tests/test_metrics.h"

namespace cxlpool {
namespace {

using core::DeviceType;
using core::Rack;
using core::RackConfig;
using core::VirtualAccel;
using core::VirtualNic;
using core::VirtualSsd;
using sim::RunBlocking;
using sim::Spawn;
using sim::Task;
using stack::BufferPool;
using stack::Placement;
using stack::UdpSocket;
using stack::UdpStack;

struct Node {
  Rack::VirtualNicHandle nic;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<UdpStack> stack;
};

Task<> MakeNode(Rack& rack, HostId host, Node* out) {
  VirtualNic::Config vc;
  vc.rings_in_cxl = true;
  auto handle = co_await rack.CreateVirtualNic(host, vc);
  CXLPOOL_CHECK(handle.ok());
  out->nic = std::move(*handle);
  auto pool =
      BufferPool::Create(rack.pod().host(host), Placement::kCxlPool, 256, 2048);
  CXLPOOL_CHECK(pool.ok());
  out->pool = std::move(*pool);
  out->stack = std::make_unique<UdpStack>(rack.pod().host(host),
                                          out->nic.vnic.get(), out->pool.get(),
                                          out->nic.mac, UdpStack::Config{});
  CXLPOOL_CHECK_OK(co_await out->stack->Start(rack.stop_token()));
}

Task<> Echo(UdpSocket* sock, sim::EventLoop& loop, sim::StopToken& stop) {
  while (!stop.stopped()) {
    auto d = co_await sock->Recv(loop.now() + 30 * kMicrosecond);
    if (d.ok()) {
      (void)co_await sock->SendTo(d->src_mac, d->src_port, d->payload);
    }
  }
}

RackConfig MidRack(int hosts) {
  RackConfig rc;
  rc.pod.num_hosts = hosts;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  return rc;
}

class IntegrationTest : public ::testing::Test {
 protected:
  // Every scenario runs under the coherence race detector: the whole-rack
  // stories must never break the publish/consume protocol, even across
  // failover and device faults.
  void Watch(Rack& rack) { checker_.AttachTo(rack.pod()); }
  void Drain(Rack& rack) {
    rack.Shutdown();
    loop_.RunFor(500 * kMicrosecond);
    EXPECT_EQ(checker_.violation_count(), 0u) << checker_.Report();
    EXPECT_EQ(rack.pod().TotalLostDirtyLines(), 0u);
    // The rack is a test-body local and dies before the fixture; detach now
    // so the checker's destructor does not reach into a destroyed pod.
    checker_.Detach();
  }
  sim::EventLoop loop_;
  analysis::CoherenceChecker checker_;
};

// A NIC-less host borrows a neighbour's NIC end-to-end: UDP echo through
// a fully remote datapath (rings + buffers in pool, doorbells forwarded).
TEST_F(IntegrationTest, NiclessHostRunsUdpThroughPooledNic) {
  RackConfig rc = MidRack(3);
  rc.nics_per_host = 0;  // nobody has a NIC...
  Rack rack(loop_, rc);
  Watch(rack);
  // ... except hosts 0 and 1, attached manually.
  devices::Nic nic0(PcieDeviceId(100), "nic0", loop_, devices::NicConfig{});
  devices::Nic nic1(PcieDeviceId(101), "nic1", loop_, devices::NicConfig{});
  nic0.AttachTo(&rack.pod().host(0));
  nic1.AttachTo(&rack.pod().host(1));
  CXLPOOL_CHECK_OK(nic0.ConnectNetwork(&rack.network(), 0x500));
  CXLPOOL_CHECK_OK(nic1.ConnectNetwork(&rack.network(), 0x501));
  rack.orchestrator().RegisterDevice(HostId(0), &nic0, DeviceType::kNic);
  rack.orchestrator().RegisterDevice(HostId(1), &nic1, DeviceType::kNic);
  rack.Start();

  // Host 2 (no NIC!) acquires one; it must be remote.
  auto assignment = rack.orchestrator().Acquire(HostId(2), DeviceType::kNic);
  ASSERT_TRUE(assignment.ok());
  EXPECT_FALSE(assignment->local);

  auto setup = [](Rack& rack, PcieDeviceId dev, HostId user, netsim::MacAddr mac,
                  Node* out) -> Task<> {
    auto path = rack.orchestrator().MakeMmioPath(user, dev);
    CXLPOOL_CHECK_OK(path.status());
    VirtualNic::Config vc;
    vc.rings_in_cxl = true;
    auto vnic = co_await VirtualNic::Create(rack.pod().host(user),
                                            std::move(*path), vc);
    CXLPOOL_CHECK_OK(vnic.status());
    out->nic.vnic = std::move(*vnic);
    out->nic.mac = mac;
    auto pool = BufferPool::Create(rack.pod().host(user), Placement::kCxlPool,
                                   256, 2048);
    CXLPOOL_CHECK_OK(pool.status());
    out->pool = std::move(*pool);
    out->stack = std::make_unique<UdpStack>(rack.pod().host(user),
                                            out->nic.vnic.get(), out->pool.get(),
                                            mac, UdpStack::Config{});
    CXLPOOL_CHECK_OK(co_await out->stack->Start(rack.stop_token()));
  };

  Node remote_node;  // host 2 using the pooled NIC
  Node peer_node;    // host 1 using its local NIC
  RunBlocking(loop_, setup(rack, assignment->device, HostId(2),
                           assignment->device == nic0.id() ? 0x500 : 0x501,
                           &remote_node));
  PcieDeviceId other = assignment->device == nic0.id() ? nic1.id() : nic0.id();
  RunBlocking(loop_, setup(rack, other, HostId(1),
                           other == nic0.id() ? 0x500 : 0x501, &peer_node));

  auto* srv = peer_node.stack->Bind(7).value();
  auto* cli = remote_node.stack->Bind(9).value();
  Spawn(Echo(srv, loop_, rack.stop_token()));

  std::string got;
  auto t = [](UdpSocket* sock, netsim::MacAddr dst, sim::EventLoop& loop,
              std::string& out) -> Task<> {
    const char msg[] = "borrowed NIC";
    std::vector<std::byte> m(sizeof(msg));
    std::memcpy(m.data(), msg, sizeof(msg));
    CXLPOOL_CHECK_OK(co_await sock->SendTo(dst, 7, m));
    auto reply = co_await sock->Recv(loop.now() + 20 * kMillisecond);
    CXLPOOL_CHECK(reply.ok());
    out = reinterpret_cast<const char*>(reply->payload.data());
  };
  RunBlocking(loop_, t(cli, peer_node.nic.mac, loop_, got));
  EXPECT_EQ(got, "borrowed NIC");
  // Doorbells really crossed the forwarding channel.
  HostId home = rack.orchestrator().record(assignment->device)->home;
  EXPECT_GT(CounterValue(rack.pod().metrics(), "agent.forwarded_writes", HostLabels(home.value())), 5u);
  Drain(rack);
}

// Failover under live traffic: echoes resume on the replacement NIC.
TEST_F(IntegrationTest, FailoverRestoresTrafficWithinAMillisecond) {
  Rack rack(loop_, MidRack(3));
  Watch(rack);
  rack.Start();
  Node server;
  Node client;
  RunBlocking(loop_, MakeNode(rack, HostId(1), &server));
  RunBlocking(loop_, MakeNode(rack, HostId(2), &client));
  netsim::MacAddr server_mac = server.nic.mac;
  auto* srv = server.stack->Bind(7).value();
  auto* cli = client.stack->Bind(9).value();
  Spawn(Echo(srv, loop_, rack.stop_token()));

  rack.orchestrator().agent(HostId(1))->SetMigrationHandler(
      [&](PcieDeviceId old_dev, PcieDeviceId new_dev, HostId) -> Task<> {
        auto path = rack.orchestrator().MakeMmioPath(HostId(1), new_dev);
        CXLPOOL_CHECK_OK(path.status());
        CXLPOOL_CHECK_OK(co_await server.stack->HandleMigration(std::move(*path)));
        rack.nic(old_dev)->DisconnectNetwork();
        CXLPOOL_CHECK_OK(rack.network().Attach(server_mac, rack.nic(new_dev)));
      });

  int before = 0;
  int after = 0;
  Nanos fail_at = 500 * kMicrosecond;
  Spawn([](UdpSocket* s, netsim::MacAddr dst, sim::EventLoop& l,
           sim::StopToken& st, int& b, int& a, Nanos failure) -> Task<> {
    std::vector<std::byte> ping(32, std::byte{7});
    while (!st.stopped()) {
      if ((co_await s->SendTo(dst, 7, ping)).ok()) {
        auto r = co_await s->Recv(l.now() + 60 * kMicrosecond);
        if (r.ok()) {
          (l.now() < failure ? b : a)++;
        }
      }
      co_await sim::Delay(l, 50 * kMicrosecond);
    }
  }(cli, server_mac, loop_, rack.stop_token(), before, after, fail_at));

  loop_.RunUntil(fail_at);
  rack.nic(1)->InjectLinkFailure();
  loop_.RunUntil(fail_at + 2 * kMillisecond);
  EXPECT_GT(before, 3);
  EXPECT_GT(after, 10);  // traffic resumed well within the window
  EXPECT_EQ(CounterValue(rack.pod().metrics(), "orch.failovers"), 1u);
  Drain(rack);
}

// The whole device zoo on one rack at once: UDP echo + SSD I/O + offload
// jobs sharing the same pool, channels, and orchestrator.
TEST_F(IntegrationTest, MixedDeviceWorkloadsCoexist) {
  RackConfig rc = MidRack(4);
  rc.ssds_per_host = 1;
  rc.accels = 1;
  Rack rack(loop_, rc);
  Watch(rack);
  rack.Start();

  Node server;
  Node client;
  RunBlocking(loop_, MakeNode(rack, HostId(0), &server));
  RunBlocking(loop_, MakeNode(rack, HostId(1), &client));
  auto* srv = server.stack->Bind(7).value();
  auto* cli = client.stack->Bind(9).value();
  Spawn(Echo(srv, loop_, rack.stop_token()));

  auto scenario = [](Rack& rack, UdpSocket* cli, netsim::MacAddr dst) -> Task<bool> {
    sim::EventLoop& loop = rack.loop();
    // SSD from host 2 (remote), accel from host 3 (remote), UDP from host 1.
    auto ssd_lease = rack.AcquireDevice(HostId(2), DeviceType::kSsd);
    CXLPOOL_CHECK_OK(ssd_lease.status());
    auto ssd = co_await VirtualSsd::Create(rack.pod().host(2),
                                           std::move(ssd_lease->mmio), {});
    CXLPOOL_CHECK_OK(ssd.status());

    auto accel_lease = rack.AcquireDevice(HostId(3), DeviceType::kAccel);
    CXLPOOL_CHECK_OK(accel_lease.status());
    auto qp = rack.accel(0)->AllocateQueuePair();
    CXLPOOL_CHECK_OK(qp.status());
    auto accel = co_await VirtualAccel::Create(rack.pod().host(3),
                                               std::move(accel_lease->mmio), {},
                                               *qp);
    CXLPOOL_CHECK_OK(accel.status());

    auto seg = rack.pod().pool().Allocate(256 * kKiB);
    CXLPOOL_CHECK_OK(seg.status());

    // Interleave all three workloads.
    bool ssd_ok = false;
    bool accel_ok = false;
    bool udp_ok = false;
    for (int round = 0; round < 3; ++round) {
      std::vector<std::byte> block(devices::kSsdSectorSize * 8,
                                   std::byte{static_cast<uint8_t>(round)});
      CXLPOOL_CHECK_OK(co_await rack.pod().host(2).StoreNt(seg->base, block));
      auto w = co_await (*ssd)->WriteBlocks(round * 8, 8, seg->base,
                                            loop.now() + kSecond);
      ssd_ok = w.ok() && *w == devices::kSsdStatusOk;

      auto j = co_await (*accel)->RunJob(seg->base, 4096, seg->base + 128 * kKiB,
                                         loop.now() + kSecond);
      accel_ok = j.ok() && *j == 0;

      std::vector<std::byte> ping(64, std::byte{9});
      CXLPOOL_CHECK_OK(co_await cli->SendTo(dst, 7, ping));
      auto r = co_await cli->Recv(loop.now() + 10 * kMillisecond);
      udp_ok = r.ok();
      if (!ssd_ok || !accel_ok || !udp_ok) {
        co_return false;
      }
    }
    co_return true;
  };
  EXPECT_TRUE(RunBlocking(loop_, scenario(rack, cli, server.nic.mac)));
  Drain(rack);
}

// MHD failure mid-run: accesses to segments on the failed device error
// out, the rest of the pool keeps working, and repair restores access.
TEST_F(IntegrationTest, MhdFailureIsContainedAndRecoverable) {
  Rack rack(loop_, MidRack(2));
  Watch(rack);
  rack.Start();
  auto seg0 = rack.pod().pool().Allocate(4096, MhdId(0));
  auto seg1 = rack.pod().pool().Allocate(4096, MhdId(1));
  ASSERT_TRUE(seg0.ok() && seg1.ok());

  // Probe uncached lines each time: a cache hit legitimately still
  // returns data after the MHD dies (nothing re-fetches), so the failure
  // is only observable on lines that miss.
  auto probe = [](Rack& rack, uint64_t addr) -> Task<Status> {
    std::array<std::byte, 64> buf;
    co_return co_await rack.pod().host(0).ReadFresh(addr, buf);
  };
  EXPECT_TRUE(RunBlocking(loop_, probe(rack, seg0->base)).ok());
  rack.pod().FailMhd(MhdId(0));
  EXPECT_EQ(RunBlocking(loop_, probe(rack, seg0->base)).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(RunBlocking(loop_, probe(rack, seg1->base)).ok());  // contained
  rack.pod().RepairMhd(MhdId(0));
  EXPECT_TRUE(RunBlocking(loop_, probe(rack, seg0->base)).ok());
  Drain(rack);
}

// Moderate load through the full stack does not lose datagrams.
TEST_F(IntegrationTest, LoadedEchoConservesPackets) {
  Rack rack(loop_, MidRack(2));
  Watch(rack);
  rack.Start();
  Node server;
  Node client;
  RunBlocking(loop_, MakeNode(rack, HostId(0), &server));
  RunBlocking(loop_, MakeNode(rack, HostId(1), &client));
  auto* srv = server.stack->Bind(7).value();
  auto* cli = client.stack->Bind(9).value();
  Spawn(Echo(srv, loop_, rack.stop_token()));

  stack::LoadGenConfig lg;
  lg.offered_pps = 100000;
  lg.payload_bytes = 256;
  lg.duration = 5 * kMillisecond;
  lg.warmup = kMillisecond;
  lg.max_outstanding = 64;
  obs::Registry registry;
  RunBlocking(loop_, stack::RunUdpLoad(cli, server.nic.mac, 7, lg, registry));
  uint64_t sent = registry.FindCounter("udp.sent")->value();
  uint64_t received = registry.FindCounter("udp.received")->value();
  EXPECT_GT(sent, 400u);
  EXPECT_EQ(received, sent);  // no loss at 20% load
  EXPECT_EQ(registry.FindCounter("udp.overload_skipped")->value(), 0u);
  Drain(rack);
}

}  // namespace
}  // namespace cxlpool
