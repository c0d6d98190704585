// Quickstart: build a CXL pod, share memory between two hosts with
// software coherence, and pass a sub-microsecond message — the two
// building blocks everything else in this library stands on.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Pass --coherence-check to run the same demo under the shadow-state race
// detector (src/analysis/coherence_checker.h): every pool-line access is
// checked against the publish/consume protocol, and the run fails loudly
// if any step is missed.
#include <cstdio>
#include <cstring>

#include "src/analysis/coherence_checker.h"
#include "src/common/check.h"
#include "src/cxl/pod.h"
#include "src/kv/store.h"
#include "src/msg/channel.h"
#include "src/sim/task.h"
#include "src/stack/buffer_pool.h"

using namespace cxlpool;

int main(int argc, char** argv) {
  bool coherence_check = false;
  for (int i = 1; i < argc; ++i) {
    coherence_check |= std::strcmp(argv[i], "--coherence-check") == 0;
  }
  // A simulated rack unit: 4 hosts, each linked to 2 multi-headed CXL
  // memory devices (the pod). Simulated time is nanoseconds on `loop`.
  sim::EventLoop loop;
  cxl::CxlPodConfig config;
  config.num_hosts = 4;
  config.num_mhds = 2;
  config.mhd_capacity = 64 * kMiB;
  config.dram_per_host = 16 * kMiB;
  cxl::CxlPod pod(loop, config);

  analysis::CoherenceChecker checker;
  if (coherence_check) {
    checker.AttachTo(pod);
    std::printf("coherence checking ON: every line access is verified against\n"
                "the publish/consume protocol\n");
  }

  // 1. Allocate shared pool memory. Every host (and every PCIe device)
  //    can address it.
  auto segment = pod.pool().Allocate(1 * kMiB);
  CXLPOOL_CHECK_OK(segment.status());
  std::printf("pool segment at 0x%llx on MHD %u\n",
              static_cast<unsigned long long>(segment->base),
              segment->mhds[0].value());

  // 2. Software coherence in action: host 0 publishes with a non-temporal
  //    store; host 1 reads it back. A plain cached store would be
  //    INVISIBLE to host 1 — today's CXL pools have no cross-host
  //    hardware coherence. (See tests/cxl_test.cc for the failure modes.)
  auto demo = [](cxl::CxlPod& pod, uint64_t addr) -> sim::Task<> {
    const char msg[] = "hello from host 0";
    std::vector<std::byte> bytes(sizeof(msg));
    std::memcpy(bytes.data(), msg, sizeof(msg));
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, bytes));
    co_await sim::Delay(pod.loop(), kMicrosecond);  // posted-write commit

    std::vector<std::byte> seen(sizeof(msg));
    CXLPOOL_CHECK_OK(co_await pod.host(1).ReadFresh(addr, seen));
    std::printf("host 1 read: \"%s\" (t=%lld ns)\n",
                reinterpret_cast<const char*>(seen.data()),
                static_cast<long long>(pod.loop().now()));
  };
  sim::RunBlocking(loop, demo(pod, segment->base));

  // 3. A message channel between two hosts: 64 B cacheline slots in the
  //    pool, nt-store publish, invalidate+load polling (paper Sec. 4.1).
  auto channel = msg::Channel::Create(pod.pool(), pod.host(2), pod.host(3));
  CXLPOOL_CHECK_OK(channel.status());

  auto ping_pong = [](msg::Channel& ch, sim::EventLoop& loop) -> sim::Task<> {
    const char ping[] = "ping";
    std::vector<std::byte> m(sizeof(ping));
    std::memcpy(m.data(), ping, sizeof(ping));

    Nanos start = loop.now();
    CXLPOOL_CHECK_OK(co_await ch.end_a().Send(m));
    std::vector<std::byte> got;
    CXLPOOL_CHECK_OK(co_await ch.end_b().Recv(&got, loop.now() + kMillisecond));
    std::printf("host 3 received \"%s\" after %lld ns (sub-microsecond, no\n"
                "hardware coherence involved — Figure 4's mechanism)\n",
                reinterpret_cast<const char*>(got.data()),
                static_cast<long long>(loop.now() - start));
  };
  sim::RunBlocking(loop, ping_pong(**channel, loop));

  // 4. The serving path: a memcached-style store whose values live in
  //    those same pool buffers (bench/kv_soak drives this over pooled
  //    NICs and SSDs under chaos; here just the cache itself).
  auto values = stack::BufferPool::Create(pod.host(0), stack::Placement::kCxlPool,
                                          /*buffer_count=*/32,
                                          /*buffer_size=*/2048);
  CXLPOOL_CHECK_OK(values.status());
  kv::Store store(values->get(), /*ssd=*/nullptr, /*ssd_capacity_bytes=*/0,
                  kv::StoreConfig{}, /*registry=*/nullptr);

  auto serve = [](kv::Store& store) -> sim::Task<> {
    const char hot[] = "cached in the pool";
    std::vector<std::byte> v(sizeof(hot));
    std::memcpy(v.data(), hot, sizeof(hot));
    CXLPOOL_CHECK_OK(co_await store.Set("user:42", v, /*deadline=*/0));
    auto got = co_await store.Get("user:42", /*deadline=*/0);
    CXLPOOL_CHECK_OK(got.status());
    std::printf("GET user:42 -> \"%s\" (origin: %s)\n",
                reinterpret_cast<const char*>(got->value.data()),
                got->origin == kv::Origin::kPool ? "pool memory" : "ssd");
  };
  sim::RunBlocking(loop, serve(store));

  if (coherence_check) {
    std::printf("\n%s\n", checker.Report().c_str());
    CXLPOOL_CHECK(checker.violation_count() == 0);
  }
  CXLPOOL_CHECK(pod.TotalLostDirtyLines() == 0);

  std::printf("\nnext steps: examples/nic_failover, examples/ssd_harvest,\n"
              "examples/accel_disagg, bench/kv_soak for the pooled KV\n"
              "service under chaos, and the bench/ binaries for every\n"
              "figure in the paper.\n");
  return 0;
}
