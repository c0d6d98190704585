// E3 / Figure 3: latency-throughput of a UDP echo service over 100 Gbps
// NICs, with the server's TX/RX buffers allocated either from local DDR5
// (solid lines in the paper) or from the CXL memory pool (dotted lines).
//
// Paper: the two placements are nearly indistinguishable — latency
// overhead within ~5% and identical maximum throughput (buffer placement
// is not the bottleneck; see EXPERIMENTS.md for the absolute-throughput
// caveat of the single-dispatcher stack model).
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/obs/registry.h"
#include "src/sim/task.h"
#include "src/stack/loadgen.h"
#include "src/stack/udp.h"

using namespace cxlpool;
using namespace cxlpool::stack;
using core::Rack;
using core::RackConfig;
using core::VirtualNic;
using sim::RunBlocking;
using sim::Spawn;
using sim::Task;

namespace {

struct Node {
  Rack::VirtualNicHandle nic;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<UdpStack> stack;
};

Task<> MakeNode(Rack& rack, HostId host, Placement buffers, int workers,
                uint32_t buffer_count, Node* out) {
  VirtualNic::Config vc;
  vc.rings_in_cxl = false;  // paper config: only the I/O buffers move
  vc.tx_entries = 1024;
  vc.rx_entries = 1024;
  vc.rx_doorbell_batch = 8;
  auto handle = co_await rack.CreateVirtualNic(host, vc);
  CXLPOOL_CHECK(handle.ok());
  out->nic = std::move(*handle);
  auto pool = BufferPool::Create(rack.pod().host(host), buffers, buffer_count, 2048);
  CXLPOOL_CHECK(pool.ok());
  out->pool = std::move(*pool);
  UdpStack::Config sc;
  sc.rx_buffers = 256;
  sc.worker_cores = workers;
  out->stack = std::make_unique<UdpStack>(rack.pod().host(host),
                                          out->nic.vnic.get(), out->pool.get(),
                                          out->nic.mac, sc);
  CXLPOOL_CHECK_OK(co_await out->stack->Start(rack.stop_token()));
}

// One echo responder; the server spawns several on the same socket so
// replies are produced concurrently (Junction runs the app on every
// worker kthread).
Task<> EchoServer(UdpSocket* sock, sim::EventLoop& loop, sim::StopToken& stop) {
  while (!stop.stopped()) {
    auto d = co_await sock->Recv(loop.now() + 50 * kMicrosecond);
    if (d.ok()) {
      (void)co_await sock->SendTo(d->src_mac, d->src_port, d->payload);
    }
  }
}

struct Point {
  double offered_mpps;
  double achieved_gbps;
  int64_t p50;
  int64_t p99;
};

std::string FormatMpps(double mpps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", mpps);
  return buf;
}

// Every point records into the shared bench registry under
// {placement, payload_b, offered_mpps} labels; the table below and the
// --json snapshot both read from the same series.
Point RunPoint(Placement server_buffers, uint32_t payload, double offered_pps,
               obs::Registry& registry, obs::BenchRun* run) {
  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 2;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 48 * kMiB;
  Rack rack(loop, rc);
  rack.Start();

  Node server;
  Node client;
  RunBlocking(loop, MakeNode(rack, HostId(0), server_buffers, /*workers=*/8,
                             /*buffer_count=*/2048, &server));
  RunBlocking(loop, MakeNode(rack, HostId(1), Placement::kLocalDram,
                             /*workers=*/8, /*buffer_count=*/2048, &client));
  auto* srv_sock = server.stack->Bind(7).value();
  auto* cli_sock = client.stack->Bind(9).value();
  for (int i = 0; i < 8; ++i) {
    Spawn(EchoServer(srv_sock, loop, rack.stop_token()));
  }

  LoadGenConfig lg;
  lg.offered_pps = offered_pps;
  lg.payload_bytes = payload;
  lg.duration = 15 * kMillisecond;
  lg.warmup = 3 * kMillisecond;
  obs::Labels labels = {
      {"placement", server_buffers == Placement::kCxlPool ? "cxl" : "local"},
      {"payload_b", std::to_string(payload)},
      {"offered_mpps", FormatMpps(offered_pps / 1e6)}};
  RunBlocking(loop,
              RunUdpLoad(cli_sock, server.stack->mac(), 7, lg, registry, labels));
  rack.Shutdown();
  loop.RunFor(500 * kMicrosecond);
  run->sim_ns += loop.now();
  run->events += loop.executed();
  // Latency must not come from skipped write-backs: any unpublished dirty
  // line silently destroyed would mean the datapath cheated the protocol.
  CXLPOOL_CHECK(rack.pod().TotalLostDirtyLines() == 0);

  Point p;
  p.offered_mpps = offered_pps / 1e6;
  p.achieved_gbps =
      static_cast<double>(registry.GetGauge("udp.achieved_mbps", labels)->value()) /
      1000.0;
  const sim::Histogram* rtt = registry.FindHistogram("udp.rtt_ns", labels);
  p.p50 = rtt->Percentile(0.50);
  p.p99 = rtt->Percentile(0.99);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--short] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== Figure 3: UDP echo latency-throughput, server buffers in\n");
  std::printf("    local DDR5 (solid) vs CXL pool (dotted); 100 Gbps NICs ===\n");

  std::vector<uint32_t> payloads = {64, 512, 1472};
  std::vector<double> loads_mpps = {0.25, 0.75, 1.5, 2.25, 3.0, 4.0};
  if (short_mode) {
    // CI snapshot mode: one payload, three regimes (light / knee / saturated).
    payloads = {512};
    loads_mpps = {0.75, 2.25, 4.0};
  }

  const int64_t wall_start = obs::WallNanos();
  obs::Registry registry;
  obs::BenchRun run;
  for (uint32_t payload : payloads) {
    std::printf("\n--- payload %u B ---\n", payload);
    std::printf("%12s | %21s | %21s\n", "", "local DDR5 (solid)",
                "CXL pool (dotted)");
    std::printf("%12s | %7s %6s %6s | %7s %6s %6s\n", "offered", "Gbps",
                "p50us", "p99us", "Gbps", "p50us", "p99us");
    for (double mpps : loads_mpps) {
      Point local = RunPoint(Placement::kLocalDram, payload, mpps * 1e6,
                             registry, &run);
      Point cxl = RunPoint(Placement::kCxlPool, payload, mpps * 1e6, registry, &run);
      std::printf("%9.2f M | %7.2f %6.1f %6.1f | %7.2f %6.1f %6.1f\n", mpps,
                  local.achieved_gbps, local.p50 / 1000.0, local.p99 / 1000.0,
                  cxl.achieved_gbps, cxl.p50 / 1000.0, cxl.p99 / 1000.0);
    }
  }
  if (!json_path.empty()) {
    run.wall_ns = obs::WallNanos() - wall_start;
    CXLPOOL_CHECK_OK(obs::WriteBenchJson(json_path, "fig3_udp_latency", run, registry));
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  std::printf("\nexpected shape: curves overlap (<~5%% latency gap at moderate\n"
              "load) and both placements saturate at the same throughput.\n");
  return 0;
}
