// E12: software coherence ablation. Today's CXL pools have no cross-host
// hardware coherence (paper Sec. 3), so the datapath must (a) publish with
// non-temporal stores or explicit flushes and (b) self-invalidate before
// consuming. This bench shows what each piece costs and what breaks
// without it.
#include <cstdio>

#include "src/common/check.h"
#include "src/cxl/pod.h"
#include "src/msg/wire.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

using namespace cxlpool;
using namespace cxlpool::cxl;
using sim::RunBlocking;
using sim::Task;

namespace {

// Publishing cost per message size: nt-store vs cached store + flush.
Task<> PublishCosts(CxlPod& pod, sim::EventLoop& loop) {
  auto seg = pod.pool().Allocate(64 * kKiB);
  CXLPOOL_CHECK_OK(seg.status());
  HostAdapter& h = pod.host(0);

  std::printf("%10s | %14s | %14s\n", "size", "nt-store", "store + flush");
  for (size_t size : {64, 256, 1024, 4096}) {
    std::vector<std::byte> data(size, std::byte{0x5f});
    Nanos t0 = loop.now();
    CXLPOOL_CHECK_OK(co_await h.StoreNt(seg->base, data));
    Nanos nt_cost = loop.now() - t0;

    t0 = loop.now();
    CXLPOOL_CHECK_OK(co_await h.Store(seg->base + 32 * kKiB, data));
    CXLPOOL_CHECK_OK(co_await h.Flush(seg->base + 32 * kKiB, size));
    Nanos flush_cost = loop.now() - t0;
    std::printf("%8zu B | %11lld ns | %11lld ns\n", size,
                static_cast<long long>(nt_cost),
                static_cast<long long>(flush_cost));
  }
  std::printf("(nt-store is posted: the CPU moves on after draining its WC "
              "buffer,\n while store+flush pays the RFO read AND a blocking "
              "writeback)\n\n");
}

// Consuming: ReadFresh (invalidate+load) vs plain (possibly stale) load.
// Returns the fresh read's cost.
Task<Nanos> ConsumeCosts(CxlPod& pod, sim::EventLoop& loop) {
  auto seg = pod.pool().Allocate(8 * kKiB);
  CXLPOOL_CHECK_OK(seg.status());
  HostAdapter& reader = pod.host(1);
  std::array<std::byte, 64> buf;

  // Warm the reader's cache.
  CXLPOOL_CHECK_OK(co_await reader.Load(seg->base, buf));
  Nanos t0 = loop.now();
  CXLPOOL_CHECK_OK(co_await reader.Load(seg->base, buf));
  Nanos cached = loop.now() - t0;

  t0 = loop.now();
  CXLPOOL_CHECK_OK(co_await reader.ReadFresh(seg->base, buf));
  Nanos fresh = loop.now() - t0;

  std::printf("consume one line: cached load %lld ns (STALE-PRONE) vs "
              "invalidate+load %lld ns (fresh)\n\n",
              static_cast<long long>(cached), static_cast<long long>(fresh));
  co_return fresh;
}

// What actually breaks: a flag written without the protocol is never
// observed by the other host; with it, it is.
Task<> CorrectnessDemo(CxlPod& pod, sim::EventLoop& loop) {
  auto seg = pod.pool().Allocate(4 * kKiB);
  CXLPOOL_CHECK_OK(seg.status());
  HostAdapter& writer = pod.host(0);
  HostAdapter& reader = pod.host(1);
  std::array<std::byte, 8> buf{};

  // Reader caches the line first (a poll loop would).
  CXLPOOL_CHECK_OK(co_await reader.Load(seg->base, buf));

  // Case 1: cached store, no flush; reader polls WITHOUT invalidation.
  std::array<std::byte, 8> flag{};
  msg::wire::PutU64(flag.data(), 1);
  CXLPOOL_CHECK_OK(co_await writer.Store(seg->base, flag));
  int polls = 0;
  uint64_t seen = 0;
  for (; polls < 1000 && seen == 0; ++polls) {
    CXLPOOL_CHECK_OK(co_await reader.Load(seg->base, buf));
    seen = msg::wire::GetU64(buf.data());
    co_await sim::Delay(loop, 100);
  }
  std::printf("no protocol (cached store + cached poll): flag %s after %d polls "
              "(100 us)\n", seen ? "SEEN" : "NEVER seen", polls);

  // Case 2: the paper's protocol.
  msg::wire::PutU64(flag.data(), 2);
  CXLPOOL_CHECK_OK(co_await writer.StoreNt(seg->base, flag));
  polls = 0;
  seen = 0;
  for (; polls < 1000 && seen != 2; ++polls) {
    CXLPOOL_CHECK_OK(co_await reader.ReadFresh(seg->base, buf));
    seen = msg::wire::GetU64(buf.data());
    if (seen != 2) {
      co_await sim::Delay(loop, 100);
    }
  }
  std::printf("paper protocol (nt-store + invalidate/load poll): flag seen after "
              "%d polls (~%lld ns)\n\n", polls, static_cast<long long>(loop.now()));
}

}  // namespace

// What CXL 3.0 Back-Invalidate would buy (paper Sec. 3: "Neither CPUs nor
// CXL memory pool devices support BI today"): consumers keep plain cached
// polls (3 ns) and the hardware snoops copies away on writes, for a snoop
// charge on the writer. `fresh_read` is the software-coherent consume cost
// ConsumeCosts measured.
Task<> BackInvalidatePreview(sim::EventLoop& loop, Nanos fresh_read) {
  CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 16 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  CxlPod pod(loop, pc);
  pod.pool().set_back_invalidate(true);
  auto seg = pod.pool().Allocate(4 * kKiB);
  CXLPOOL_CHECK_OK(seg.status());
  HostAdapter& writer = pod.host(0);
  HostAdapter& reader = pod.host(1);

  // Reader warms its cache; polls are plain cached loads from here on.
  std::array<std::byte, 8> buf{};
  CXLPOOL_CHECK_OK(co_await reader.Load(seg->base, buf));
  Nanos t0 = loop.now();
  CXLPOOL_CHECK_OK(co_await reader.Load(seg->base, buf));
  Nanos poll_cost = loop.now() - t0;

  t0 = loop.now();
  std::array<std::byte, 8> flag{};
  msg::wire::PutU64(flag.data(), 1);
  CXLPOOL_CHECK_OK(co_await writer.StoreNt(seg->base, flag));
  Nanos write_cost = loop.now() - t0;

  co_await sim::Delay(loop, kMicrosecond);
  CXLPOOL_CHECK_OK(co_await reader.Load(seg->base, buf));  // plain load!
  bool fresh = msg::wire::GetU64(buf.data()) == 1;

  std::printf("CXL 3.0 Back-Invalidate preview (hypothetical hardware):\n");
  std::printf("  reader poll: %lld ns cached load (vs %lld ns invalidate+load "
              "under sw coherence)\n",
              static_cast<long long>(poll_cost), static_cast<long long>(fresh_read));
  std::printf("  writer nt-store with 1 sharer: %lld ns (includes the BI "
              "snoop round)\n", static_cast<long long>(write_cost));
  std::printf("  plain cached poll after write: %s (hardware invalidated the "
              "copy)\n\n", fresh ? "FRESH" : "stale");
}

int main() {
  std::printf("=== Software coherence ablation (paper Secs. 3-4.1) ===\n\n");
  sim::EventLoop loop;
  CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 16 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  CxlPod pod(loop, pc);

  RunBlocking(loop, PublishCosts(pod, loop));
  Nanos fresh_read = RunBlocking(loop, ConsumeCosts(pod, loop));
  RunBlocking(loop, CorrectnessDemo(pod, loop));
  RunBlocking(loop, BackInvalidatePreview(loop, fresh_read));

  // This bench deliberately breaks the protocol exactly once: case 1 of the
  // correctness demo leaves a dirty cached flag that the case-2 nt-store
  // destroys. Pin the count so the hazard stays demonstrated — and stays
  // contained to that one line.
  CXLPOOL_CHECK(pod.TotalLostDirtyLines() == 1);

  std::printf("takeaway: correctness across hosts requires exactly the paper's\n"
              "two primitives; their cost is a few hundred ns per touch, which\n"
              "the datapath hides behind DMA and doorbell latency (Fig. 3).\n"
              "BI hardware would shift that cost from pollers to writers —\n"
              "but it does not exist yet, which is why the paper's design is\n"
              "deployable today and BI is only this ablation.\n");
  return 0;
}
