// Host-time cost of single calls into each layer, measured in isolation on
// small private fixtures. Each probe runs three times; the median counts.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/sim/harness.h"
#include "src/common/check.h"
#include "src/cxl/pod.h"
#include "src/kv/store.h"
#include "src/msg/channel.h"
#include "src/sim/task.h"
#include "src/stack/buffer_pool.h"

namespace perfbench {
namespace {

using namespace cxlpool;
using sim::Task;

cxl::CxlPodConfig SmallPod() {
  cxl::CxlPodConfig c;
  c.num_hosts = 2;
  c.num_mhds = 1;
  c.mhd_capacity = 16 * kMiB;
  c.dram_per_host = 4 * kMiB;
  c.cache_lines_per_host = 1024;  // the line probe's footprint is 4x this
  return c;
}

template <typename Fn>
double MedianNsPerCall(uint64_t calls, Fn run) {
  std::vector<double> ns;
  for (int i = 0; i < 3; ++i) {
    double t0 = WallNow();
    run();
    ns.push_back(ScaledHostSeconds(WallNow() - t0) * 1e9 / static_cast<double>(calls));
  }
  std::sort(ns.begin(), ns.end());
  return ns[1];
}

// One sim::Delay resumption per call.
Task<> Resume(sim::EventLoop& loop, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    co_await sim::Delay(loop, 1);
  }
}

// Load, Store, StoreNt and DmaWrite over [base, base + bytes), in calls of
// one 512 B datagram (8 lines), the datapath's usual access size.
constexpr uint64_t kCallBytes = 512;

Task<> TouchLines(cxl::HostAdapter& host, uint64_t base, uint64_t bytes) {
  std::vector<std::byte> buf(kCallBytes, std::byte{0x5a});
  for (uint64_t a = base; a < base + bytes; a += kCallBytes) {
    CXLPOOL_CHECK_OK(co_await host.Load(a, buf));
    CXLPOOL_CHECK_OK(co_await host.Store(a, buf));
  }
  for (uint64_t a = base; a < base + bytes; a += kCallBytes) {
    CXLPOOL_CHECK_OK(co_await host.StoreNt(a, buf));
    CXLPOOL_CHECK_OK(co_await host.DmaWrite(a, buf));
  }
}

Task<> PingPong(msg::Channel& ch, uint64_t n) {
  std::vector<std::byte> payload(64, std::byte{0x11});
  std::vector<std::byte> out;
  sim::EventLoop& loop = ch.end_a().loop();
  for (uint64_t i = 0; i < n; ++i) {
    CXLPOOL_CHECK_OK(co_await ch.end_a().Send(payload));
    CXLPOOL_CHECK_OK(co_await ch.end_b().Recv(&out, loop.now() + kMillisecond));
  }
}

std::string Key(uint64_t i) { return "k" + std::to_string(i); }

Task<> SetAll(kv::Store& store, sim::EventLoop& loop, uint64_t keys) {
  std::vector<std::byte> value(256, std::byte{0x42});
  for (uint64_t i = 0; i < keys; ++i) {
    CXLPOOL_CHECK_OK(co_await store.Set(Key(i), value, loop.now() + kMillisecond));
  }
}

Task<> GetAll(kv::Store& store, sim::EventLoop& loop, uint64_t keys) {
  for (uint64_t i = 0; i < keys; ++i) {
    auto r = co_await store.Get(Key(i), loop.now() + kMillisecond);
    CXLPOOL_CHECK_OK(r.status());
  }
}

}  // namespace

Metrics MeasureHostCosts() {
  Metrics out;

  constexpr uint64_t kResumes = 1'000'000;
  out["host_ns.sim_event"] = MedianNsPerCall(kResumes, [] {
    sim::EventLoop loop;
    sim::RunBlocking(loop, Resume(loop, kResumes));
  });

  {
    sim::EventLoop loop;
    cxl::CxlPod pod(loop, SmallPod());
    const uint64_t bytes = 4 * SmallPod().cache_lines_per_host * kCachelineSize;
    auto seg = pod.pool().Allocate(bytes);
    CXLPOOL_CHECK_OK(seg.status());
    const uint64_t lines = bytes / kCachelineSize;
    constexpr int kPasses = 8;
    out["host_ns.mem_line"] = MedianNsPerCall(4 * lines * kPasses, [&] {
      for (int i = 0; i < kPasses; ++i) {
        sim::RunBlocking(loop, TouchLines(pod.host(0), seg->base, bytes));
      }
    });
  }

  {
    sim::EventLoop loop;
    cxl::CxlPod pod(loop, SmallPod());
    auto ch = msg::Channel::Create(pod.pool(), pod.host(0), pod.host(1));
    CXLPOOL_CHECK_OK(ch.status());
    constexpr uint64_t kMsgs = 20'000;
    out["host_ns.msg_send_recv"] = MedianNsPerCall(
        kMsgs, [&] { sim::RunBlocking(loop, PingPong(**ch, kMsgs)); });
  }

  {
    sim::EventLoop loop;
    cxl::CxlPod pod(loop, SmallPod());
    constexpr uint32_t kBuffers = 1024;
    constexpr uint64_t kKeys = 512;  // all resident: no SSD tier
    auto pool = stack::BufferPool::Create(pod.host(0), stack::Placement::kCxlPool,
                                          kBuffers, 2048);
    CXLPOOL_CHECK_OK(pool.status());
    kv::Store store(pool->get(), nullptr, 0, kv::StoreConfig{}, nullptr);
    sim::RunBlocking(loop, SetAll(store, loop, kKeys));
    out["host_ns.kv_set"] = MedianNsPerCall(
        kKeys, [&] { sim::RunBlocking(loop, SetAll(store, loop, kKeys)); });
    out["host_ns.kv_get"] = MedianNsPerCall(
        kKeys, [&] { sim::RunBlocking(loop, GetAll(store, loop, kKeys)); });
  }
  return out;
}

}  // namespace perfbench
