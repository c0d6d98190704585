// E4 / Figure 4: latency distribution of shared-memory message passing
// over the CXL pool (ping-pong over 64 B-slot rings, PCIe-5.0 x16 links).
//
// Paper: sub-microsecond latencies without cache coherence; median ~600 ns,
// slightly above the theoretical minimum of one CXL write + one CXL read.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/check.h"
#include "src/cxl/pod.h"
#include "src/msg/channel.h"
#include "src/obs/registry.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

using namespace cxlpool;
using sim::Task;

namespace {

Task<> Pong(msg::Channel& ch, sim::EventLoop& loop, sim::StopToken& stop) {
  while (!stop.stopped()) {
    std::vector<std::byte> m;
    Status st = co_await ch.end_b().Recv(&m, loop.now() + 50 * kMicrosecond);
    if (st.code() == StatusCode::kDeadlineExceeded) {
      continue;
    }
    CXLPOOL_CHECK_OK(st);
    CXLPOOL_CHECK_OK(co_await ch.end_b().Send(m));
  }
}

Task<> Ping(msg::Channel& ch, sim::EventLoop& loop, sim::Histogram& hist,
            int count, sim::StopToken& stop) {
  std::vector<std::byte> payload(16, std::byte{0x42});  // single 64 B slot
  for (int i = 0; i < count; ++i) {
    Nanos start = loop.now();
    CXLPOOL_CHECK_OK(co_await ch.end_a().Send(payload));
    std::vector<std::byte> echo;
    CXLPOOL_CHECK_OK(co_await ch.end_a().Recv(&echo, loop.now() + kMillisecond));
    if (i >= count / 10) {  // discard warm-up
      hist.Add((loop.now() - start) / 2);  // one-way
    }
  }
  stop.Stop();
}

// --- Streaming phase: one-directional throughput, N concurrent senders ---
// Exercises the hot-path batching machinery end to end: concurrent Sends
// stage in the MPSC submission front, the drainer write-combines them into
// multi-slot nt-store runs (RingSender::SendBatch), and the receiver
// drains bursts from one windowed invalidate+load round.

Task<> StreamSend(msg::Endpoint& ep, int count, int& live, sim::Event& done) {
  std::vector<std::byte> payload(16, std::byte{0x5a});
  for (int i = 0; i < count; ++i) {
    CXLPOOL_CHECK_OK(co_await ep.Send(payload));
  }
  if (--live == 0) {
    done.Set();
  }
}

Task<> StreamDrain(msg::Endpoint& ep, sim::EventLoop& loop, int total) {
  for (int i = 0; i < total; ++i) {
    std::vector<std::byte> m;
    CXLPOOL_CHECK_OK(co_await ep.Recv(&m, loop.now() + 10 * kMillisecond));
    CXLPOOL_CHECK(m.size() == 16);
  }
}

Task<> StreamPhase(cxl::CxlPod& pod, sim::EventLoop& loop, int producers,
                   int per_producer, double* rate) {
  msg::Channel::Options sopts;
  sopts.poll_min = 50;
  sopts.poll_max = 100;
  auto sch = msg::Channel::Create(pod.pool(), pod.host(0), pod.host(1), sopts);
  CXLPOOL_CHECK_OK(sch.status());
  int live = producers;
  sim::Event done(loop);
  Nanos t0 = loop.now();
  for (int p = 0; p < producers; ++p) {
    sim::Spawn(StreamSend((*sch)->end_a(), per_producer, live, done));
  }
  co_await StreamDrain((*sch)->end_b(), loop, per_producer * producers);
  while (live > 0) {
    co_await done.Wait();
  }
  *rate = static_cast<double>(per_producer * producers) * 1e9 /
          static_cast<double>(loop.now() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  std::printf("=== Figure 4: shared-memory message passing latency (one-way) ===\n");
  std::printf("ping-pong over 64 B-slot rings in the CXL pool; both hosts on\n");
  std::printf("PCIe-5.0 x16 links; software coherence (nt-store / inval+load)\n\n");

  const int64_t wall_start = obs::WallNanos();
  sim::EventLoop loop;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 16 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  pc.link.lanes = 16;  // the paper's Figure 4 setup
  cxl::CxlPod pod(loop, pc);

  msg::Channel::Options opts;
  opts.poll_min = 50;   // ping-pong peers busy-poll
  opts.poll_max = 100;
  auto ch = msg::Channel::Create(pod.pool(), pod.host(0), pod.host(1), opts);
  CXLPOOL_CHECK_OK(ch.status());

  sim::Histogram hist;
  sim::StopToken stop;
  sim::Spawn(Pong(**ch, loop, stop));
  sim::Spawn(Ping(**ch, loop, hist, 5000, stop));
  loop.Run();

  const auto& t = pod.host(0).timing();
  std::printf("theoretical floor (one CXL write + one CXL read): %lld ns\n\n",
              static_cast<long long>(t.cxl_write + t.cxl_read));
  std::printf("%8s %10s\n", "quantile", "ns");
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999}) {
    std::printf("%7.1f%% %10lld\n", q * 100,
                static_cast<long long>(hist.Percentile(q)));
  }
  std::printf("\nmedian %lld ns (paper: ~600 ns, sub-us overall); max %lld ns\n",
              static_cast<long long>(hist.Percentile(0.5)),
              static_cast<long long>(hist.max()));

  // Streaming throughput: same rings, one direction, concurrent senders.
  // The 8-producer row shows the MPSC front + SendBatch write-combining;
  // the 1-producer row is the unbatched reference.
  std::printf("\n=== streaming throughput (batched MPSC submission) ===\n");
  double rate1 = 0;
  double rate8 = 0;
  sim::RunBlocking(loop, StreamPhase(pod, loop, 1, 8000, &rate1));
  sim::RunBlocking(loop, StreamPhase(pod, loop, 8, 1000, &rate8));
  std::printf("  %-9s %10s %14s\n", "producers", "msgs", "msgs/sec");
  std::printf("  %9d %10d %14.0f\n", 1, 8000, rate1);
  std::printf("  %9d %10d %14.0f\n", 8, 8000, rate8);

  if (!json_path.empty()) {
    obs::Registry reg;
    reg.GetHistogram("fig4.oneway_ns")->MergeFrom(hist);
    reg.GetGauge("fig4.floor_ns")->Set(t.cxl_write + t.cxl_read);
    reg.GetGauge("fig4.msgs_per_sec", {{"producers", "1"}})
        ->Set(static_cast<int64_t>(rate1));
    reg.GetGauge("fig4.msgs_per_sec", {{"producers", "8"}})
        ->Set(static_cast<int64_t>(rate8));
    CXLPOOL_CHECK_OK(obs::WriteBenchJson(
        json_path, "fig4_msg_latency",
        {.sim_ns = loop.now(), .events = loop.executed(),
         .wall_ns = obs::WallNanos() - wall_start},
        reg));
    std::printf("metrics snapshot: %s\n", json_path.c_str());
  }
  CXLPOOL_CHECK(pod.TotalLostDirtyLines() == 0);
  return 0;
}
