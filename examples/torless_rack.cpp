// "Datacenter networks without ToRs" (paper §5).
//
// Classic racks funnel every server through one (or two) top-of-rack
// switches. With NIC pooling over the CXL pod, the rack instead provisions
// NICs wired DIRECTLY to multiple aggregation-layer switches (planes).
// When a whole plane — or any single NIC — fails, the pooling orchestrator
// migrates traffic onto NICs of the surviving plane: no ToR, no single
// point of failure, and the spare capacity is pooled instead of per-host.
//
//   ./build/examples/torless_rack
#include <cstdio>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/sim/task.h"
#include "src/stack/udp.h"

using namespace cxlpool;
using namespace cxlpool::core;
using namespace cxlpool::stack;
using sim::RunBlocking;
using sim::Spawn;
using sim::Task;

namespace {

struct PlaneNode {
  devices::Nic* plane_a = nullptr;
  devices::Nic* plane_b = nullptr;
  netsim::MacAddr mac = 0;  // the host's stable address (moves with failover)
  netsim::Network* current_net = nullptr;  // where `mac` is attached now
  std::unique_ptr<VirtualNic> vnic;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<UdpStack> stack;
};

Task<> BuildStack(Rack& rack, HostId host, PcieDeviceId nic, PlaneNode* node) {
  auto path = rack.orchestrator().MakeMmioPath(host, nic);
  CXLPOOL_CHECK_OK(path.status());
  VirtualNic::Config vc;
  vc.rings_in_cxl = true;
  auto vnic = co_await VirtualNic::Create(rack.pod().host(host), std::move(*path), vc);
  CXLPOOL_CHECK_OK(vnic.status());
  node->vnic = std::move(*vnic);
  node->stack = std::make_unique<UdpStack>(rack.pod().host(host),
                                           node->vnic.get(), node->pool.get(),
                                           node->mac, UdpStack::Config{});
  CXLPOOL_CHECK_OK(co_await node->stack->Start(rack.stop_token()));
}

}  // namespace

int main() {
  std::printf("=== ToR-less rack: dual aggregation planes + pooled NICs ===\n\n");

  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 2;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.nics_per_host = 0;  // we wire NICs to aggregation planes manually
  Rack rack(loop, rc);

  // Two aggregation planes instead of a ToR.
  netsim::Network plane_a(loop, netsim::NetworkConfig{});
  netsim::Network plane_b(loop, netsim::NetworkConfig{});

  // Per host: one NIC into each plane. Plane-A NICs are registered first
  // so initial leases land on plane A.
  std::vector<std::unique_ptr<devices::Nic>> nics;
  PlaneNode nodes[2];
  for (uint32_t h = 0; h < 2; ++h) {
    for (int p = 0; p < 2; ++p) {
      auto nic = std::make_unique<devices::Nic>(
          PcieDeviceId(h * 2 + p), (p == 0 ? "planeA-nic" : "planeB-nic"),
          loop, devices::NicConfig{});
      nic->AttachTo(&rack.pod().host(h));
      netsim::Network& plane = p == 0 ? plane_a : plane_b;
      CXLPOOL_CHECK_OK(nic->ConnectNetwork(&plane, 0x900 + h * 2 + p));
      rack.orchestrator().RegisterDevice(HostId(h), nic.get(), DeviceType::kNic);
      (p == 0 ? nodes[h].plane_a : nodes[h].plane_b) = nic.get();
      nics.push_back(std::move(nic));
    }
    nodes[h].mac = 0x800 + h;  // stable service address
  }
  rack.Start();

  // Stable MACs initially live on the plane-A NICs.
  for (int h = 0; h < 2; ++h) {
    CXLPOOL_CHECK_OK(plane_a.Attach(nodes[h].mac, nodes[h].plane_a));
    nodes[h].current_net = &plane_a;
    auto pool = BufferPool::Create(rack.pod().host(h), Placement::kCxlPool, 256, 2048);
    CXLPOOL_CHECK_OK(pool.status());
    nodes[h].pool = std::move(*pool);
    // Lease the plane-A NIC (first registered, so Acquire picks it).
    auto lease = rack.orchestrator().Acquire(HostId(h), DeviceType::kNic);
    CXLPOOL_CHECK_OK(lease.status());
    RunBlocking(loop, BuildStack(rack, HostId(h), lease->device, &nodes[h]));
  }

  // Failover wiring: when a plane-A NIC dies, rebind the host's stack to
  // its plane-B NIC and move the stable MAC to plane B.
  // The orchestrator may momentarily pick a NIC whose failure it has not
  // heard about yet; the handler just follows every migration (a dead
  // target triggers a further failover), re-homing the stable MAC onto
  // whatever plane the new NIC sits on.
  for (uint32_t h = 0; h < 2; ++h) {
    PlaneNode* node = &nodes[h];
    netsim::Network* pa = &plane_a;
    netsim::Network* pb = &plane_b;
    std::vector<std::unique_ptr<devices::Nic>>* all_nics = &nics;
    rack.orchestrator().agent(HostId(h))->SetMigrationHandler(
        [rack = &rack, node, pa, pb, all_nics, h](
            PcieDeviceId, PcieDeviceId new_dev, HostId) -> Task<> {
          auto path = rack->orchestrator().MakeMmioPath(HostId(h), new_dev);
          CXLPOOL_CHECK_OK(path.status());
          CXLPOOL_CHECK_OK(co_await node->stack->HandleMigration(std::move(*path)));
          netsim::Network* target_net = new_dev.value() % 2 == 0 ? pa : pb;
          devices::Nic* target_nic = nullptr;
          for (auto& n : *all_nics) {
            if (n->id() == new_dev) {
              target_nic = n.get();
            }
          }
          CXLPOOL_CHECK(target_nic != nullptr);
          if (node->current_net != target_net) {
            (void)node->current_net->Detach(node->mac);
            CXLPOOL_CHECK_OK(target_net->Attach(node->mac, target_nic));
            node->current_net = target_net;
          }
          std::printf("[t=%.0f us] host %u re-homed onto plane %s (device %u)\n",
                      node->stack->host().loop().now() / 1000.0, h,
                      new_dev.value() % 2 == 0 ? "A" : "B", new_dev.value());
        });
  }

  auto* srv = nodes[0].stack->Bind(80).value();
  auto* cli = nodes[1].stack->Bind(5000).value();
  Spawn([](UdpSocket* s, sim::EventLoop& l, sim::StopToken& st) -> Task<> {
    while (!st.stopped()) {
      auto d = co_await s->Recv(l.now() + 50 * kMicrosecond);
      if (d.ok()) {
        (void)co_await s->SendTo(d->src_mac, d->src_port, d->payload);
      }
    }
  }(srv, loop, rack.stop_token()));

  int plane_a_ok = 0;
  int plane_b_ok = 0;
  Nanos plane_fail_at = kMillisecond;
  Spawn([](UdpSocket* s, netsim::MacAddr dst, sim::EventLoop& l,
           sim::StopToken& st, int& a, int& b, Nanos failure) -> Task<> {
    std::vector<std::byte> ping(48, std::byte{3});
    while (!st.stopped()) {
      if ((co_await s->SendTo(dst, 80, ping)).ok()) {
        auto r = co_await s->Recv(l.now() + 80 * kMicrosecond);
        if (r.ok()) {
          (l.now() < failure ? a : b)++;
        }
      }
      co_await sim::Delay(l, 100 * kMicrosecond);
    }
  }(cli, nodes[0].mac, loop, rack.stop_token(), plane_a_ok, plane_b_ok,
    plane_fail_at));

  loop.RunUntil(plane_fail_at);
  std::printf("[t=%.0f us] !!! aggregation plane A fails (both plane-A NIC "
              "links down)\n", loop.now() / 1000.0);
  nodes[0].plane_a->InjectLinkFailure();
  nodes[1].plane_a->InjectLinkFailure();

  loop.RunUntil(plane_fail_at + 4 * kMillisecond);
  rack.Shutdown();
  loop.RunFor(kMillisecond);

  std::printf("\nechoes via plane A (before failure): %d\n", plane_a_ok);
  std::printf("echoes via plane B (after failover):  %d\n", plane_b_ok);
  std::printf("failovers executed: %llu\n",
              static_cast<unsigned long long>(
                  rack.pod().metrics().FindCounter("orch.failovers")->value()));
  std::printf("\nno ToR anywhere: the rack survives a whole aggregation plane\n"
              "because its NICs are a pooled, re-routable resource (paper Sec. 5).\n");
  CXLPOOL_CHECK(rack.pod().TotalLostDirtyLines() == 0);
  return plane_b_ok > 0 ? 0 : 1;
}
