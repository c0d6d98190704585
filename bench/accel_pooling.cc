// E10 / §1+§5 soft accelerator disaggregation: specialized accelerators
// see infrequent per-host use, so dedicating one per host strands the
// hardware. With the CXL pod, a single device serves the whole rack
// (paper suggests e.g. a 1:16 accelerator:host ratio) — every host
// submits jobs through pool memory and the forwarding channel.
//
// Compared: 16 dedicated accelerators (one per host) vs 1 pooled device,
// same aggregate Poisson job load. Metrics: device utilization, job
// latency, capex.
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

constexpr int kHosts = 16;
constexpr uint32_t kJobBytes = 64 * kKiB;
constexpr double kJobsPerSecPerHost = 6000;
constexpr Nanos kDuration = 20 * kMillisecond;
constexpr double kAccelCostUsd = 5000;

struct RunResult {
  sim::Histogram latency;
  double utilization = 0;
  uint64_t jobs = 0;
};

Task<> JobStream(Rack& rack, HostId host, VirtualAccel* accel, uint64_t in_buf,
                 uint64_t out_buf, sim::Histogram& lat, uint64_t& jobs,
                 sim::StopToken& stop) {
  sim::EventLoop& loop = rack.loop();
  sim::Rng rng(1000 + host.value());
  std::vector<std::byte> data(kJobBytes, std::byte{0x11});
  CXLPOOL_CHECK_OK(co_await rack.pod().host(host).StoreNt(in_buf, data));
  double gap = 1e9 / kJobsPerSecPerHost;
  while (!stop.stopped()) {
    co_await sim::Delay(loop, static_cast<Nanos>(rng.Exponential(gap)));
    Nanos start = loop.now();
    auto st = co_await accel->RunJob(in_buf, kJobBytes, out_buf,
                                     loop.now() + 100 * kMillisecond);
    if (st.ok() && *st == 0) {
      lat.Add(loop.now() - start);
      ++jobs;
    }
  }
}

// `accels` devices shared by kHosts hosts (1 => fully pooled;
// kHosts => dedicated per host).
RunResult RunScenario(int accels) {
  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = kHosts;
  rc.pod.num_mhds = 4;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 4 * kMiB;
  rc.accels = 0;  // placed manually below so homes spread
  Rack rack(loop, rc);

  std::vector<std::unique_ptr<devices::Accelerator>> devs;
  devices::AccelConfig ac;
  ac.engines = 2;
  for (int a = 0; a < accels; ++a) {
    int home = accels == 1 ? 0 : a;  // dedicated: one per host
    auto dev = std::make_unique<devices::Accelerator>(
        PcieDeviceId(1000 + a), "accel" + std::to_string(a), loop, ac);
    dev->AttachTo(&rack.pod().host(home));
    devices::Accelerator* raw = dev.get();
    rack.orchestrator().RegisterDevice(HostId(home), raw, DeviceType::kAccel,
                                       [raw] { return raw->Utilization(); });
    devs.push_back(std::move(dev));
  }
  rack.Start();

  RunResult result;
  std::vector<std::unique_ptr<VirtualAccel>> handles;
  uint64_t jobs_total = 0;
  for (int h = 0; h < kHosts; ++h) {
    devices::Accelerator* dev = accels == 1 ? devs[0].get() : devs[h].get();
    auto qp = dev->AllocateQueuePair();
    CXLPOOL_CHECK_OK(qp.status());
    auto path = rack.orchestrator().MakeMmioPath(HostId(h), dev->id());
    CXLPOOL_CHECK_OK(path.status());
    VirtualAccel::Config vc;
    vc.rings_in_cxl = true;
    auto va = RunBlocking(loop, VirtualAccel::Create(rack.pod().host(h),
                                                     std::move(*path), vc, *qp));
    CXLPOOL_CHECK_OK(va.status());
    auto seg = rack.pod().pool().Allocate(256 * kKiB);
    CXLPOOL_CHECK_OK(seg.status());
    Spawn(JobStream(rack, HostId(h), va->get(), seg->base, seg->base + 128 * kKiB,
                    result.latency, jobs_total, rack.stop_token()));
    handles.push_back(std::move(*va));
  }

  loop.RunUntil(kDuration);
  rack.Shutdown();
  loop.RunFor(kMillisecond);
  CXLPOOL_CHECK(rack.pod().TotalLostDirtyLines() == 0);

  double util = 0;
  for (auto& d : devs) {
    util += static_cast<double>(d->busy_ns()) /
            (static_cast<double>(kDuration) * d->units());
  }
  result.utilization = util / accels;
  result.jobs = jobs_total;
  return result;
}

}  // namespace

int main() {
  std::printf("=== Soft accelerator disaggregation: 1 pooled vs %d dedicated ===\n",
              kHosts);
  std::printf("%d hosts x %.0f jobs/s x %u KiB jobs, %lld ms window\n\n", kHosts,
              kJobsPerSecPerHost, kJobBytes / 1024,
              static_cast<long long>(kDuration / kMillisecond));

  RunResult dedicated = RunScenario(kHosts);
  RunResult pooled = RunScenario(1);

  std::printf("%-22s %14s %14s\n", "", "dedicated x16", "pooled x1");
  std::printf("%-22s %13.1f%% %13.1f%%\n", "device utilization",
              dedicated.utilization * 100, pooled.utilization * 100);
  std::printf("%-22s %11.1f us %11.1f us\n", "job p50 latency",
              dedicated.latency.Percentile(0.5) / 1000.0,
              pooled.latency.Percentile(0.5) / 1000.0);
  std::printf("%-22s %11.1f us %11.1f us\n", "job p99 latency",
              dedicated.latency.Percentile(0.99) / 1000.0,
              pooled.latency.Percentile(0.99) / 1000.0);
  std::printf("%-22s %14llu %14llu\n", "jobs completed",
              static_cast<unsigned long long>(dedicated.jobs),
              static_cast<unsigned long long>(pooled.jobs));
  std::printf("%-22s $%13.0f $%13.0f\n", "accelerator capex",
              kAccelCostUsd * kHosts, kAccelCostUsd);
  std::printf("\nexpected shape: pooling multiplies utilization ~%dx and cuts "
              "capex %dx while\njob latency grows only by queueing + the "
              "remote submission path (channel RTT).\n", kHosts, kHosts);
  return 0;
}
