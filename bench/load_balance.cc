// E7 / §4.2 load balancing: "If a PCIe device ... becomes overloaded, the
// corresponding agent will report the issue to the orchestrator ... The
// orchestrator can then migrate workloads from the affected device to
// other devices."
//
// Story: during provisioning, accelerator 1 was down, so three hosts'
// offload streams all landed on accelerator 0. Once accelerator 1 is
// repaired, the auto-rebalancer observes accel 0 above the overload
// threshold and sheds leases one scan at a time; job latency recovers.
#include <cstdio>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

using namespace cxlpool;
using namespace cxlpool::core;
using sim::RunBlocking;
using sim::Spawn;
using sim::Task;

namespace {

struct Client {
  HostId host;
  Orchestrator::Assignment assignment;
  std::unique_ptr<VirtualAccel> accel;
  int qp = -1;
  sim::Histogram latency_before;
  sim::Histogram latency_after;
  uint64_t jobs = 0;
  // Jobs started after the repair on the handle the client holds now
  // (zeroed at each migration).
  uint64_t held_jobs_after_repair = 0;
};

Task<> JobStream(Rack& rack, Client& c, uint64_t in_buf, uint64_t out_buf,
                 Nanos rebalanced_at_hint, sim::StopToken& stop) {
  sim::EventLoop& loop = rack.loop();
  sim::Rng rng(17 + c.host.value());
  std::vector<std::byte> data(64 * kKiB, std::byte{0x31});
  CXLPOOL_CHECK_OK(co_await rack.pod().host(c.host).StoreNt(in_buf, data));
  while (!stop.stopped()) {
    co_await sim::Delay(loop, static_cast<Nanos>(rng.Exponential(30000)));  // ~33k jobs/s (overloads one device)
    Nanos start = loop.now();
    VirtualAccel* handle = c.accel.get();
    auto st = co_await handle->RunJob(in_buf, static_cast<uint32_t>(data.size()),
                                       out_buf, loop.now() + 50 * kMillisecond);
    if (!st.ok() || *st != 0) {
      continue;  // mid-migration hiccup
    }
    ++c.jobs;
    if (start < rebalanced_at_hint) {
      c.latency_before.Add(loop.now() - start);
    } else {
      c.latency_after.Add(loop.now() - start);
      if (handle == c.accel.get()) {
        ++c.held_jobs_after_repair;
      }
    }
  }
}

}  // namespace

int main() {
  std::printf("=== Orchestrator load balancing: overloaded accelerator sheds "
              "leases ===\n\n");

  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 4;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 8 * kMiB;
  rc.accels = 2;  // accel 0 on host 0; accel 1 placed below
  rc.accel_home = 0;
  rc.accel.engines = 1;
  rc.orch.auto_rebalance = true;
  rc.orch.overload_threshold = 0.40;
  rc.orch.rebalance_interval = 300 * kMicrosecond;
  Rack rack(loop, rc);

  // Accelerator 1 is "down during provisioning".
  rack.accel(1)->InjectFailure();
  rack.Start();

  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t h : {1, 2, 3}) {
    auto c = std::make_unique<Client>();
    c->host = HostId(h);
    auto lease = rack.AcquireDevice(c->host, DeviceType::kAccel);
    CXLPOOL_CHECK_OK(lease.status());
    CXLPOOL_CHECK(lease->assignment.device == rack.accel(0)->id());
    c->assignment = lease->assignment;
    auto qp = rack.accel(0)->AllocateQueuePair();
    CXLPOOL_CHECK_OK(qp.status());
    c->qp = *qp;
    VirtualAccel::Config vc;
    auto va = RunBlocking(loop, VirtualAccel::Create(rack.pod().host(c->host),
                                                     std::move(lease->mmio), vc,
                                                     c->qp));
    CXLPOOL_CHECK_OK(va.status());
    c->accel = std::move(*va);
    clients.push_back(std::move(c));
  }
  std::printf("provisioning: accel 1 was down -> all 3 hosts landed on accel 0\n");

  // Wire migration handlers: open a handle on the new device's queue pair
  // and swap it in. The old handle is parked (not destroyed) so jobs in
  // flight on the old device drain cleanly.
  Nanos first_rebalance = -1;
  std::vector<std::unique_ptr<VirtualAccel>> drained;
  for (auto& c : clients) {
    Client* cp = c.get();
    rack.orchestrator().agent(cp->host)->SetMigrationHandler(
        [rack = &rack, cp, first_rebalance = &first_rebalance, loop = &loop,
         drained = &drained](PcieDeviceId, PcieDeviceId new_dev,
                             HostId) -> Task<> {
          devices::Accelerator* target =
              rack->accel(new_dev == rack->accel(0)->id() ? 0 : 1);
          auto qp = target->AllocateQueuePair();
          CXLPOOL_CHECK_OK(qp.status());
          auto path = rack->orchestrator().MakeMmioPath(cp->host, new_dev);
          CXLPOOL_CHECK_OK(path.status());
          VirtualAccel::Config vc;
          auto va = co_await VirtualAccel::Create(rack->pod().host(cp->host),
                                                  std::move(*path), vc, *qp);
          CXLPOOL_CHECK_OK(va.status());
          drained->push_back(std::move(cp->accel));  // let in-flight jobs finish
          cp->accel = std::move(*va);
          cp->qp = *qp;
          cp->held_jobs_after_repair = 0;
          if (*first_rebalance < 0) {
            *first_rebalance = loop->now();
          }
        });
  }

  // Job buffers in the pool and job streams.
  sim::StopToken& stop = rack.stop_token();
  Nanos repair_at = 3 * kMillisecond;
  Nanos end_at = 12 * kMillisecond;
  for (auto& c : clients) {
    auto seg = rack.pod().pool().Allocate(128 * kKiB);
    CXLPOOL_CHECK_OK(seg.status());
    Spawn(JobStream(rack, *c, seg->base, seg->base + 64 * kKiB, repair_at, stop));
  }

  loop.RunUntil(repair_at);
  double util_before = rack.accel(0)->Utilization();
  rack.accel(1)->Repair();
  std::printf("t=%.1f ms: accel 1 repaired; accel 0 utilization %.0f%% "
              "(threshold %.0f%%)\n",
              repair_at / 1e6, util_before * 100, rc.orch.overload_threshold * 100);

  loop.RunUntil(end_at);
  rack.Shutdown();
  loop.RunFor(kMillisecond);

  const auto& rec0 = *rack.orchestrator().record(rack.accel(0)->id());
  const auto& rec1 = *rack.orchestrator().record(rack.accel(1)->id());
  std::printf("\nafter rebalancing (first migration at t=%.2f ms):\n",
              first_rebalance / 1e6);
  std::printf("  accel 0: %zu lease(s), reported util %.0f%%\n",
              rec0.lessees.size(), rec0.utilization * 100);
  std::printf("  accel 1: %zu lease(s), reported util %.0f%%\n",
              rec1.lessees.size(), rec1.utilization * 100);
  std::printf("  rebalance migrations executed: %llu\n\n",
              static_cast<unsigned long long>(
                  rack.pod().metrics().FindCounter("orch.rebalances")->value()));

  std::printf("%8s | %14s | %14s | %s\n", "host", "p50 before", "p50 after", "jobs");
  for (auto& c : clients) {
    std::printf("%8u | %11.1f us | %11.1f us | %llu\n", c->host.value(),
                c->latency_before.Percentile(0.5) / 1000.0,
                c->latency_after.Percentile(0.5) / 1000.0,
                static_cast<unsigned long long>(c->jobs));
  }
  std::printf("\nexpected shape: leases split across both devices and job p50 "
              "drops once\nqueueing on the hot accelerator is relieved.\n");
  // Every host is still served after the repair, by the accelerator it
  // holds at the end: a repaired device must run jobs again.
  for (auto& c : clients) {
    CXLPOOL_CHECK(c->held_jobs_after_repair > 0);
  }
  CXLPOOL_CHECK(rack.pod().TotalLostDirtyLines() == 0);
  return 0;
}
