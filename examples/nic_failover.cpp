// NIC pooling with automatic failover (paper §2.2 / §4.2).
//
// A web-server-like host serves UDP echo through its local NIC; when the
// NIC's wire dies, the pooling orchestrator migrates the host onto a
// neighbour's NIC through the CXL pool: rings stay in pool memory, the
// replacement device DMAs the same addresses, doorbells travel over the
// shared-memory channel, and the server's MAC moves to the new port.
//
//   ./build/examples/nic_failover
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

struct Node {
  Rack::VirtualNicHandle nic;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<UdpStack> stack;
};

Task<> MakeNode(Rack& rack, HostId host, Node* out) {
  VirtualNic::Config vc;
  vc.rings_in_cxl = true;  // rings must survive the device, so: pool memory
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

}  // namespace

int main() {
  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 3;  // server, client, and a host donating its NIC
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  Rack rack(loop, rc);
  rack.Start();

  Node server;
  Node client;
  RunBlocking(loop, MakeNode(rack, HostId(1), &server));
  RunBlocking(loop, MakeNode(rack, HostId(2), &client));
  netsim::MacAddr server_mac = server.nic.mac;
  auto* srv = server.stack->Bind(80).value();
  auto* cli = client.stack->Bind(5000).value();

  // Echo service.
  Spawn([](UdpSocket* s, sim::EventLoop& l, sim::StopToken& st) -> Task<> {
    while (!st.stopped()) {
      auto d = co_await s->Recv(l.now() + 50 * kMicrosecond);
      if (d.ok()) {
        (void)co_await s->SendTo(d->src_mac, d->src_port, d->payload);
      }
    }
  }(srv, loop, rack.stop_token()));

  // The migration handler IS the failover story: rebind + MAC takeover.
  // Pointer init-captures, not `[&]`: the handler coroutine can outlive
  // this scope's stack frame conceptually, so every captured object is
  // named and its lifetime auditable (all live in main() past Shutdown).
  rack.orchestrator().agent(HostId(1))->SetMigrationHandler(
      [rack = &rack, loop = &loop, srv = &server, server_mac](
          PcieDeviceId old_dev, PcieDeviceId new_dev, HostId new_home) -> Task<> {
        std::printf("[t=%.1f us] orchestrator: migrate NIC %u -> NIC %u "
                    "(home host %u)\n", loop->now() / 1000.0, old_dev.value(),
                    new_dev.value(), new_home.value());
        auto path = rack->orchestrator().MakeMmioPath(HostId(1), new_dev);
        CXLPOOL_CHECK_OK(path.status());
        CXLPOOL_CHECK_OK(co_await srv->stack->HandleMigration(std::move(*path)));
        rack->nic(old_dev)->DisconnectNetwork();
        CXLPOOL_CHECK_OK(rack->network().Attach(server_mac, rack->nic(new_dev)));
        std::printf("[t=%.1f us] stack rebound; MAC moved to the new port\n",
                    loop->now() / 1000.0);
      });

  // Client pings once per 100 us and reports successes.
  int ok_before = 0;
  int ok_after = 0;
  Nanos fail_at = kMillisecond;
  Spawn([](UdpSocket* s, netsim::MacAddr dst, sim::EventLoop& l,
           sim::StopToken& st, int& before, int& after, Nanos failure) -> Task<> {
    std::vector<std::byte> ping(32, std::byte{7});
    while (!st.stopped()) {
      Status sent = co_await s->SendTo(dst, 80, ping);
      if (sent.ok()) {
        auto reply = co_await s->Recv(l.now() + 80 * kMicrosecond);
        if (reply.ok()) {
          (l.now() < failure ? before : after)++;
        }
      }
      co_await sim::Delay(l, 100 * kMicrosecond);
    }
  }(cli, server_mac, loop, rack.stop_token(), ok_before, ok_after, fail_at));

  loop.RunUntil(fail_at);
  std::printf("[t=%.1f us] !!! NIC %u wire failure injected\n",
              loop.now() / 1000.0, server.nic.assignment.device.value());
  rack.nic(server.nic.assignment.device)->InjectLinkFailure();

  loop.RunUntil(fail_at + 3 * kMillisecond);
  rack.Shutdown();
  loop.RunFor(kMillisecond);

  std::printf("\nechoes before failure: %d; after failover: %d\n", ok_before,
              ok_after);
  std::printf("failovers executed by the orchestrator: %llu\n",
              static_cast<unsigned long long>(
                  rack.pod().metrics().FindCounter("orch.failovers")->value()));
  std::printf("without pooling this server would be offline until a tech "
              "replaced the NIC.\n");
  CXLPOOL_CHECK(rack.pod().TotalLostDirtyLines() == 0);
  return ok_after > 0 ? 0 : 1;
}
