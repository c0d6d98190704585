// Micro-benchmarks (google-benchmark) of the simulator's hot primitives:
// wall-clock throughput of the event loop, coroutine scheduling, the HDR
// histogram, the write-back cache model, the shared-memory ring and its
// idle poll.
// These bound how big an experiment the harness can run per CPU-second.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/common/check.h"
#include "src/cxl/pod.h"
#include "src/mem/cache.h"
#include "src/msg/ring.h"
#include "src/obs/registry.h"
#include "src/sim/event_loop.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

using namespace cxlpool;

namespace {

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      loop.Schedule(i, [&sink] { ++sink; });
    }
    loop.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventLoopScheduleRun);

// The loop in its steady state under a datapath's event mix: 86 actors
// (udp_echo's average pending count) each looping on Delay, mostly
// 0-511 ns with 1% of 4-64 us. Items are executed events.
void BM_EventLoopSteadyState(benchmark::State& state) {
  constexpr int kActors = 86;
  sim::Rng rng(5);
  std::vector<Nanos> delays(4096);
  for (Nanos& d : delays) {
    d = rng.Bernoulli(0.01) ? rng.UniformInt(4 * kMicrosecond, 64 * kMicrosecond)
                            : rng.UniformInt(0, 511);
  }
  auto actor = [](sim::EventLoop& l, const std::vector<Nanos>& ds, size_t first,
                  const bool& stop) -> sim::Task<> {
    for (size_t i = first; !stop; ++i) {
      co_await sim::Delay(l, ds[i % ds.size()]);
    }
  };
  sim::EventLoop loop;
  bool stop = false;
  for (int a = 0; a < kActors; ++a) {
    sim::Spawn(actor(loop, delays, static_cast<size_t>(a) * 47, stop));
  }
  loop.RunFor(100 * kMicrosecond);  // past the first long delays
  const uint64_t start = loop.executed();
  for (auto _ : state) {
    loop.RunFor(kMicrosecond);
  }
  state.SetItemsProcessed(static_cast<int64_t>(loop.executed() - start));
  stop = true;
  loop.Run();
}
BENCHMARK(BM_EventLoopSteadyState);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    auto chain = [](sim::EventLoop& l) -> sim::Task<int> {
      int acc = 0;
      for (int i = 0; i < 256; ++i) {
        co_await sim::Delay(l, 10);
        ++acc;
      }
      co_return acc;
    };
    benchmark::DoNotOptimize(sim::RunBlocking(loop, chain(loop)));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CoroutinePingPong);

void BM_HistogramAdd(benchmark::State& state) {
  sim::Histogram h;
  sim::Rng rng(3);
  for (auto _ : state) {
    h.Add(static_cast<int64_t>(rng.UniformInt(uint64_t{1000000})));
  }
  benchmark::DoNotOptimize(h.Percentile(0.5));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

void BM_CacheFindInstall(benchmark::State& state) {
  obs::Registry metrics;
  mem::WriteBackCache cache(4096, obs::Scope(metrics));
  std::array<std::byte, kCachelineSize> line{};
  sim::Rng rng(4);
  for (auto _ : state) {
    uint64_t addr = rng.UniformInt(uint64_t{8192}) * kCachelineSize;
    if (cache.Find(addr) == nullptr) {
      cache.Install(addr, line.data(), false);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheFindInstall);

void BM_RingMessageRoundTrip(benchmark::State& state) {
  // Full simulated send+recv per iteration (the Figure 4 unit of work).
  sim::EventLoop loop;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 16 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  cxl::CxlPod pod(loop, pc);
  auto seg = pod.pool().Allocate(msg::RingFootprint(64));
  CXLPOOL_CHECK_OK(seg.status());
  msg::RingConfig rc;
  rc.base = seg->base;
  rc.slots = 64;
  msg::RingSender tx(pod.host(0), rc);
  msg::RingReceiver rx(pod.host(1), rc);
  std::vector<std::byte> payload(16, std::byte{1});

  for (auto _ : state) {
    auto once = [](msg::RingSender& s, msg::RingReceiver& r, sim::EventLoop& l,
                   std::span<const std::byte> p) -> sim::Task<> {
      // This micro-bench measures the raw SPSC ring, not the endpoint stack.
      CXLPOOL_CHECK_OK(co_await s.Send(p));  // simlint: allow(direct-ring-send)
      std::vector<std::byte> got;
      CXLPOOL_CHECK_OK(co_await r.Recv(&got, l.now() + kMillisecond));
    };
    sim::RunBlocking(loop, once(tx, rx, loop, payload));
  }
  CXLPOOL_CHECK(pod.TotalLostDirtyLines() == 0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingMessageRoundTrip);

// One idle poll of a pool-resident ring: the windowed ReadFresh of the
// head slot that TryRecv makes on an empty ring. A single Recv waits out
// the whole run, polling at a fixed cadence the way a serve loop does, so
// the loop runs nothing but polls (TryRecv would add its own frame per
// call). Items are polls; the ring's window_loads counter counts them.
void BM_IdleRingPoll(benchmark::State& state) {
  sim::EventLoop loop;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 16 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  cxl::CxlPod pod(loop, pc);
  auto seg = pod.pool().Allocate(msg::RingFootprint(64));
  CXLPOOL_CHECK_OK(seg.status());
  msg::RingConfig rc;
  rc.base = seg->base;
  rc.slots = 64;
  rc.poll_min = rc.poll_max = 100;
  msg::RingReceiver rx(pod.host(1), rc);
  const obs::Counter* polls =
      pod.metrics().FindCounter("ring.window_loads", pod.host(1).metrics().labels());

  // The Recv times out once the last iteration has run.
  const Nanos end = static_cast<Nanos>(state.max_iterations) * kMicrosecond;
  Status result;
  auto wait = [](msg::RingReceiver& r, Nanos deadline, Status* out) -> sim::Task<> {
    std::vector<std::byte> got;
    *out = co_await r.Recv(&got, deadline);
  };
  sim::Spawn(wait(rx, end, &result));
  CXLPOOL_CHECK(polls != nullptr);
  const uint64_t first = polls->value();
  for (auto _ : state) {
    loop.RunFor(kMicrosecond);
    benchmark::DoNotOptimize(polls->value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(polls->value() - first));
  loop.Run();
  CXLPOOL_CHECK(result.code() == StatusCode::kDeadlineExceeded);
}
BENCHMARK(BM_IdleRingPoll);

void BM_PoolAllocateRoute(benchmark::State& state) {
  sim::EventLoop loop;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 1;
  pc.num_mhds = 2;
  pc.mhd_capacity = 512 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  cxl::CxlPod pod(loop, pc);
  auto seg = pod.pool().Allocate(1 * kMiB);
  CXLPOOL_CHECK_OK(seg.status());
  sim::Rng rng(9);
  for (auto _ : state) {
    uint64_t addr = seg->base + rng.UniformInt(seg->size);
    benchmark::DoNotOptimize(pod.pool().RouteAddress(addr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocateRoute);

}  // namespace

BENCHMARK_MAIN();
