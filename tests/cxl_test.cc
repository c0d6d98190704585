#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/cxl/host_adapter.h"
#include "src/cxl/pod.h"
#include "src/cxl/pool.h"
#include "src/cxl/replication.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::cxl {
namespace {

using sim::RunBlocking;
using sim::Task;

std::vector<std::byte> Bytes(std::initializer_list<uint8_t> vals) {
  std::vector<std::byte> out;
  for (uint8_t v : vals) {
    out.push_back(std::byte{v});
  }
  return out;
}

std::vector<std::byte> Fill(size_t n, uint8_t v) {
  return std::vector<std::byte>(n, std::byte{v});
}

class CxlPodTest : public ::testing::Test {
 protected:
  CxlPodTest() : pod_(loop_, MakeConfig()) {}

  static CxlPodConfig MakeConfig() {
    CxlPodConfig c;
    c.num_hosts = 3;
    c.num_mhds = 2;
    c.mhd_capacity = 8 * kMiB;
    c.dram_per_host = 8 * kMiB;
    return c;
  }

  // A host's counter, and a region's, read back from the pod's registry.
  uint64_t HostCount(int host, const std::string& name) {
    return CounterValue(pod_.metrics(), name, pod_.host(host).metrics().labels());
  }
  uint64_t RegionCount(const std::string& name) {
    return CounterValue(pod_.metrics(), name, {{"region", "r"}});
  }
  obs::Scope RegionScope() { return obs::Scope(pod_.metrics(), {{"region", "r"}}); }

  sim::EventLoop loop_;
  CxlPod pod_;
};

// --- Pool allocation & routing ---

TEST_F(CxlPodTest, AllocateBalancesAcrossMhds) {
  auto s1 = pod_.pool().Allocate(1 * kMiB);
  ASSERT_TRUE(s1.ok());
  auto s2 = pod_.pool().Allocate(1 * kMiB);
  ASSERT_TRUE(s2.ok());
  // Least-utilized policy: second segment lands on the other MHD.
  EXPECT_NE(s1->mhds[0], s2->mhds[0]);
}

TEST_F(CxlPodTest, AllocatePreferredMhd) {
  auto s = pod_.pool().Allocate(4096, MhdId(1));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->mhds[0], MhdId(1));
  EXPECT_EQ(*pod_.pool().RouteAddress(s->base), MhdId(1));
  EXPECT_EQ(*pod_.pool().RouteAddress(s->base + s->size - 1), MhdId(1));
}

TEST_F(CxlPodTest, AllocateRejectsOversized) {
  auto s = pod_.pool().Allocate(100 * kMiB);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CxlPodTest, AllocateOnFailedMhdRejected) {
  pod_.FailMhd(MhdId(0));
  auto s = pod_.pool().Allocate(4096, MhdId(0));
  EXPECT_EQ(s.status().code(), StatusCode::kUnavailable);
  // Unpreferred allocation still succeeds on the healthy MHD.
  auto s2 = pod_.pool().Allocate(4096);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->mhds[0], MhdId(1));
}

TEST_F(CxlPodTest, FreeReturnsCapacity) {
  auto s = pod_.pool().Allocate(1 * kMiB, MhdId(0));
  ASSERT_TRUE(s.ok());
  uint64_t used = pod_.pool().used_bytes(MhdId(0));
  EXPECT_GE(used, 1 * kMiB);
  ASSERT_TRUE(pod_.pool().Free(*s).ok());
  EXPECT_EQ(pod_.pool().used_bytes(MhdId(0)), used - s->size);
  EXPECT_EQ(pod_.pool().Free(*s).code(), StatusCode::kFailedPrecondition);
}

TEST_F(CxlPodTest, InterleavedRoutingAlternatesPerGranule) {
  auto s = pod_.pool().AllocateInterleaved(64 * kKiB, {MhdId(0), MhdId(1)});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->interleaved());
  EXPECT_EQ(*pod_.pool().RouteAddress(s->base), MhdId(0));
  EXPECT_EQ(*pod_.pool().RouteAddress(s->base + kInterleaveGranule), MhdId(1));
  EXPECT_EQ(*pod_.pool().RouteAddress(s->base + 2 * kInterleaveGranule), MhdId(0));
}

TEST_F(CxlPodTest, RouteUnknownAddressFails) {
  EXPECT_FALSE(pod_.pool().RouteAddress(0xdeadbeef).ok());
}

// --- Host adapter: local DRAM ---

TEST_F(CxlPodTest, DramRoundTripAndTiming) {
  HostAdapter& h = pod_.host(0);
  auto addr = h.AllocateDram(4096);
  ASSERT_TRUE(addr.ok());
  auto in = Fill(256, 0x5a);
  auto out = Fill(256, 0);

  auto t = [](HostAdapter& host, uint64_t a, std::span<const std::byte> wr,
              std::span<std::byte> rd) -> Task<> {
    CXLPOOL_CHECK_OK(co_await host.Store(a, wr));
    CXLPOOL_CHECK_OK(co_await host.Load(a, rd));
  };
  RunBlocking(loop_, t(h, *addr, in, out));
  EXPECT_EQ(std::memcmp(in.data(), out.data(), in.size()), 0);
  // Store ~dram_store, load ~dram_load + serialization; both well under 1 us.
  EXPECT_GT(loop_.now(), h.timing().dram_load);
  EXPECT_LT(loop_.now(), 1000);
}

TEST_F(CxlPodTest, CannotTouchAnotherHostsDram) {
  auto addr = pod_.host(1).AllocateDram(4096);
  ASSERT_TRUE(addr.ok());
  auto buf = Fill(64, 0);
  auto t = [](HostAdapter& host, uint64_t a, std::span<std::byte> b) -> Task<Status> {
    co_return co_await host.Load(a, b);
  };
  Status st = RunBlocking(loop_, t(pod_.host(0), *addr, buf));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// --- Host adapter: CXL pool semantics ---

TEST_F(CxlPodTest, CxlLoadIsSlowerThanDram) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto buf = Fill(64, 0);
  auto t = [](HostAdapter& host, uint64_t a, std::span<std::byte> b) -> Task<> {
    CXLPOOL_CHECK_OK(co_await host.Load(a, b));
  };
  RunBlocking(loop_, t(pod_.host(0), seg->base, buf));
  Nanos cxl_time = loop_.now();
  EXPECT_GE(cxl_time, pod_.host(0).timing().cxl_read * 7 / 10);  // jittered
  // Paper §3: ~2-3x local DRAM.
  double ratio = static_cast<double>(cxl_time) /
                 static_cast<double>(pod_.host(0).timing().dram_load);
  EXPECT_GE(ratio, 2.0);
  EXPECT_LE(ratio, 3.5);
}

TEST_F(CxlPodTest, SecondLoadHitsCache) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto buf = Fill(64, 0);
  HostAdapter& h = pod_.host(0);

  auto t = [](HostAdapter& host, uint64_t a, std::span<std::byte> b) -> Task<> {
    CXLPOOL_CHECK_OK(co_await host.Load(a, b));
  };
  RunBlocking(loop_, t(h, seg->base, buf));
  Nanos first = loop_.now();
  RunBlocking(loop_, t(h, seg->base, buf));
  Nanos second = loop_.now() - first;
  EXPECT_LT(second, first / 10);  // cache hit is far cheaper
  EXPECT_GE(HostCount(0, "cache.hits"), 1u);
}

// The central hazard: cached stores are invisible to other hosts, and
// cached loads go stale — until the software coherence protocol is used.
TEST_F(CxlPodTest, CachedStoreInvisibleToOtherHostWithoutFlush) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  uint64_t a = seg->base;
  auto payload = Bytes({1, 2, 3, 4});

  auto t = [](HostAdapter& writer, HostAdapter& reader, uint64_t addr,
              std::span<const std::byte> data) -> Task<int> {
    CXLPOOL_CHECK_OK(co_await writer.Store(addr, data));  // cached, dirty
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await reader.Load(addr, seen));
    co_return static_cast<int>(seen[0]);
  };
  int seen = RunBlocking(loop_, t(pod_.host(0), pod_.host(1), a, payload));
  EXPECT_EQ(seen, 0);  // stale: the store never reached the pool
}

TEST_F(CxlPodTest, FlushMakesCachedStoreVisible) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  uint64_t a = seg->base;
  auto payload = Bytes({1, 2, 3, 4});

  auto t = [](HostAdapter& writer, HostAdapter& reader, uint64_t addr,
              std::span<const std::byte> data) -> Task<int> {
    CXLPOOL_CHECK_OK(co_await writer.Store(addr, data));
    CXLPOOL_CHECK_OK(co_await writer.Flush(addr, data.size()));
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await reader.Load(addr, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop_, t(pod_.host(0), pod_.host(1), a, payload)), 1);
}

TEST_F(CxlPodTest, NtStoreImmediatelyVisible) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  uint64_t a = seg->base;
  auto payload = Bytes({9, 9, 9, 9});

  auto t = [](HostAdapter& writer, HostAdapter& reader, uint64_t addr,
              std::span<const std::byte> data) -> Task<int> {
    CXLPOOL_CHECK_OK(co_await writer.StoreNt(addr, data));
    // Posted write: visible after the media-commit latency, no flush needed.
    co_await sim::Delay(writer.loop(), kMicrosecond);
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await reader.Load(addr, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop_, t(pod_.host(0), pod_.host(1), a, payload)), 9);
}

TEST_F(CxlPodTest, StaleCachedLoadNeedsReadFresh) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  uint64_t a = seg->base;

  // Reader caches the old value; writer publishes with nt-store; a cached
  // Load still sees the stale copy, and ReadFresh sees the new one.
  auto t = [](HostAdapter& writer, HostAdapter& reader, uint64_t addr)
      -> Task<std::pair<int, int>> {
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await reader.Load(addr, seen));  // caches zeros
    auto payload = Bytes({7, 7, 7, 7});
    CXLPOOL_CHECK_OK(co_await writer.StoreNt(addr, payload));
    co_await sim::Delay(writer.loop(), kMicrosecond);  // media commit
    CXLPOOL_CHECK_OK(co_await reader.Load(addr, seen));
    int stale = static_cast<int>(seen[0]);
    CXLPOOL_CHECK_OK(co_await reader.ReadFresh(addr, seen));
    int fresh = static_cast<int>(seen[0]);
    co_return std::make_pair(stale, fresh);
  };
  auto [stale, fresh] = RunBlocking(loop_, t(pod_.host(0), pod_.host(1), seg->base));
  EXPECT_EQ(stale, 0);  // the bug the paper's protocol exists to avoid
  EXPECT_EQ(fresh, 7);
  (void)a;
}

TEST_F(CxlPodTest, SameHostSeesOwnCachedStore) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto t = [](HostAdapter& h, uint64_t addr) -> Task<int> {
    auto payload = Bytes({5, 5, 5, 5});
    CXLPOOL_CHECK_OK(co_await h.Store(addr, payload));
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await h.Load(addr, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop_, t(pod_.host(0), seg->base)), 5);
}

// --- DMA semantics ---

TEST_F(CxlPodTest, DmaWriteVisibleToRemoteReadFresh) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto t = [](HostAdapter& dma_host, HostAdapter& reader, uint64_t addr) -> Task<int> {
    auto payload = Bytes({3, 3, 3, 3});
    CXLPOOL_CHECK_OK(co_await dma_host.DmaWrite(addr, payload));
    co_await sim::Delay(dma_host.loop(), kMicrosecond);  // posted-write commit
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await reader.ReadFresh(addr, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop_, t(pod_.host(0), pod_.host(1), seg->base)), 3);
}

TEST_F(CxlPodTest, DmaReadSnoopsOwnHostDirtyCache) {
  // The device's own host wrote through its cache (dirty, not flushed).
  // Inbound DMA on the same host snoops the cache and sees the data.
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto t = [](HostAdapter& h, uint64_t addr) -> Task<int> {
    auto payload = Bytes({8, 8, 8, 8});
    CXLPOOL_CHECK_OK(co_await h.Store(addr, payload));  // dirty in cache
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await h.DmaRead(addr, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop_, t(pod_.host(0), seg->base)), 8);
}

TEST_F(CxlPodTest, DmaReadDoesNotSnoopRemoteHostCache) {
  // Host 1 wrote through its cache without flushing; a device on host 0
  // DMA-reads the pool and must NOT see host 1's dirty data.
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto t = [](HostAdapter& writer, HostAdapter& dma_host, uint64_t addr) -> Task<int> {
    auto payload = Bytes({6, 6, 6, 6});
    CXLPOOL_CHECK_OK(co_await writer.Store(addr, payload));
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await dma_host.DmaRead(addr, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop_, t(pod_.host(1), pod_.host(0), seg->base)), 0);
}

TEST_F(CxlPodTest, DmaWriteOverOwnDirtyLineCountsItLost) {
  // The root-complex snoop drops this host's dirty copy for the device's
  // bytes, exactly as an nt-store over a dirty line does.
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto t = [](HostAdapter& h, uint64_t addr) -> Task<> {
    CXLPOOL_CHECK_OK(co_await h.Store(addr, Fill(64, 0x11)));
    CXLPOOL_CHECK_OK(co_await h.DmaWrite(addr, Fill(64, 0x22)));
  };
  RunBlocking(loop_, t(pod_.host(0), seg->base));
  EXPECT_EQ(HostCount(0, "host.lost_dirty_lines"), 1u);
}

TEST_F(CxlPodTest, ReadFreshWritesOwnDirtyLineBackBeforeLoading) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto t = [](HostAdapter& h, uint64_t addr) -> Task<int> {
    CXLPOOL_CHECK_OK(co_await h.Store(addr, Fill(64, 0x6b)));  // dirty
    std::array<std::byte, 64> seen{};
    CXLPOOL_CHECK_OK(co_await h.ReadFresh(addr, seen));
    co_return static_cast<int>(seen[0]);
  };
  // The load missed (the line was invalidated) and still saw the store:
  // the writeback landed in media first.
  EXPECT_EQ(RunBlocking(loop_, t(pod_.host(0), seg->base)), 0x6b);
  std::vector<std::byte> media(64);
  pod_.host(1).PeekBackend(seg->base, media);
  EXPECT_EQ(media, Fill(64, 0x6b));
  EXPECT_EQ(HostCount(0, "host.flushed_dirty_lines"), 1u);
  EXPECT_EQ(HostCount(0, "host.invalidates"), 1u);
  EXPECT_EQ(HostCount(0, "host.loads"), 1u);
  EXPECT_EQ(HostCount(0, "cache.misses"), 2u);  // the store's RFO and the load
}

// --- Failure handling ---

TEST_F(CxlPodTest, AccessFailsWhenMhdDown) {
  auto seg = pod_.pool().Allocate(4096, MhdId(0));
  ASSERT_TRUE(seg.ok());
  pod_.FailMhd(MhdId(0));
  auto buf = Fill(64, 0);
  auto t = [](HostAdapter& h, uint64_t a, std::span<std::byte> b) -> Task<Status> {
    co_return co_await h.Load(a, b);
  };
  Status st = RunBlocking(loop_, t(pod_.host(0), seg->base, buf));
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);

  pod_.RepairMhd(MhdId(0));
  st = RunBlocking(loop_, t(pod_.host(0), seg->base, buf));
  EXPECT_TRUE(st.ok());
}

TEST_F(CxlPodTest, AccessFailsWhenLinkDown) {
  auto seg = pod_.pool().Allocate(4096, MhdId(0));
  ASSERT_TRUE(seg.ok());
  pod_.FailLink(HostId(0), MhdId(0));
  auto buf = Fill(64, 0);
  auto t = [](HostAdapter& h, uint64_t a, std::span<std::byte> b) -> Task<Status> {
    co_return co_await h.Load(a, b);
  };
  EXPECT_EQ(RunBlocking(loop_, t(pod_.host(0), seg->base, buf)).code(),
            StatusCode::kUnavailable);
  // Another host with a healthy link still reaches the segment.
  EXPECT_TRUE(RunBlocking(loop_, t(pod_.host(1), seg->base, buf)).ok());
}

TEST_F(CxlPodTest, FlushOverDeadLinkCountsLineLostNotFlushed) {
  auto seg = pod_.pool().Allocate(4096, MhdId(0));
  ASSERT_TRUE(seg.ok());
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<Status> {
    CXLPOOL_CHECK_OK(co_await pod.host(0).Store(addr, Fill(64, 0x5c)));
    pod.FailLink(HostId(0), MhdId(0));
    co_return co_await pod.host(0).Flush(addr, 64);
  };
  EXPECT_EQ(RunBlocking(loop_, t(pod_, seg->base)).code(), StatusCode::kUnavailable);
  EXPECT_EQ(HostCount(0, "host.flushed_dirty_lines"), 0u);
  EXPECT_EQ(HostCount(0, "host.lost_dirty_lines"), 1u);
}

TEST_F(CxlPodTest, HealthyPathsReflectFailures) {
  EXPECT_EQ(pod_.HealthyPaths(HostId(0)), 2);
  pod_.FailLink(HostId(0), MhdId(1));
  EXPECT_EQ(pod_.HealthyPaths(HostId(0)), 1);
  pod_.FailMhd(MhdId(0));
  EXPECT_EQ(pod_.HealthyPaths(HostId(0)), 0);
  EXPECT_EQ(pod_.HealthyPaths(HostId(1)), 1);  // link to MHD 1 still up
}

// --- Bandwidth / interleaving ---

TEST_F(CxlPodTest, InterleavingAggregatesLinkBandwidth) {
  // Stream 4 MiB via one MHD vs striped across both; the striped copy
  // should take roughly half as long (two x8 links instead of one).
  auto single = pod_.pool().Allocate(4 * kMiB, MhdId(0));
  ASSERT_TRUE(single.ok());
  auto striped = pod_.pool().AllocateInterleaved(4 * kMiB, {MhdId(0), MhdId(1)});
  ASSERT_TRUE(striped.ok());

  auto stream = [](HostAdapter& h, uint64_t base, uint64_t total) -> Task<> {
    std::vector<std::byte> chunk(64 * kKiB, std::byte{0xab});
    for (uint64_t off = 0; off < total; off += chunk.size()) {
      CXLPOOL_CHECK_OK(co_await h.StoreNt(base + off, chunk));
    }
  };

  sim::EventLoop loop1;
  CxlPod pod1(loop1, MakeConfig());
  auto s1 = pod1.pool().Allocate(4 * kMiB, MhdId(0));
  RunBlocking(loop1, stream(pod1.host(0), s1->base, 4 * kMiB));
  Nanos t_single = loop1.now();

  sim::EventLoop loop2;
  CxlPod pod2(loop2, MakeConfig());
  auto s2 = pod2.pool().AllocateInterleaved(4 * kMiB, {MhdId(0), MhdId(1)});
  RunBlocking(loop2, stream(pod2.host(0), s2->base, 4 * kMiB));
  Nanos t_striped = loop2.now();

  double speedup = static_cast<double>(t_single) / static_cast<double>(t_striped);
  EXPECT_GT(speedup, 1.6);
  EXPECT_LT(speedup, 2.4);
}

// An access striped over more links than a host adapter tallies inline
// (eight) still charges every link exactly its own bytes, on every path
// that tallies per-link traffic, and moves the right bytes.
TEST(CxlStripingTest, AccessOverTenLinksChargesEachLink) {
  constexpr int kMhds = 10;
  sim::EventLoop loop;
  CxlPodConfig c;
  c.num_hosts = 1;
  c.num_mhds = kMhds;
  c.mhd_capacity = 1 * kMiB;
  c.dram_per_host = 1 * kMiB;
  CxlPod pod(loop, c);
  std::vector<MhdId> mhds;
  for (int m = 0; m < kMhds; ++m) {
    mhds.push_back(MhdId(m));
  }
  auto seg = pod.pool().AllocateInterleaved(64 * kKiB, mhds);
  ASSERT_TRUE(seg.ok());
  HostAdapter& h = pod.host(0);

  // One granule per link: StoreNt, Load (all misses), DmaRead, Store (all
  // hits), Flush (all dirty), DmaWrite, Store (all misses), then ReadFresh
  // (all dirty: writes back, then misses).
  auto run = [](HostAdapter& host, uint64_t a, uint64_t n) -> Task<> {
    std::vector<std::byte> out(n);
    CXLPOOL_CHECK_OK(co_await host.StoreNt(a, Fill(n, 0x11)));
    CXLPOOL_CHECK_OK(co_await host.Load(a, out));
    CXLPOOL_CHECK(out == Fill(n, 0x11));
    CXLPOOL_CHECK_OK(co_await host.DmaRead(a, out));
    CXLPOOL_CHECK(out == Fill(n, 0x11));
    CXLPOOL_CHECK_OK(co_await host.Store(a, Fill(n, 0x22)));
    CXLPOOL_CHECK_OK(co_await host.Flush(a, n));
    CXLPOOL_CHECK_OK(co_await host.DmaWrite(a, Fill(n, 0x33)));
    CXLPOOL_CHECK_OK(co_await host.Store(a, Fill(n, 0x44)));
    CXLPOOL_CHECK_OK(co_await host.ReadFresh(a, out));
    CXLPOOL_CHECK(out == Fill(n, 0x44));
  };
  RunBlocking(loop, run(h, seg->base, kMhds * kInterleaveGranule));
  loop.Run();  // nothing left pending: the Store waited for the DmaWrite

  for (int m = 0; m < kMhds; ++m) {
    CxlLink* link = h.LinkTo(MhdId(m));
    ASSERT_NE(link, nullptr);
    EXPECT_EQ(link->to_device().total_bytes(), 4 * kInterleaveGranule) << "MHD " << m;
    EXPECT_EQ(link->from_device().total_bytes(), 4 * kInterleaveGranule) << "MHD " << m;
  }
  std::vector<std::byte> media(kMhds * kInterleaveGranule);
  h.PeekBackend(seg->base, media);
  EXPECT_EQ(media, Fill(media.size(), 0x44));
}

// --- Golden trace of every accessor ---

// Records each line event as "host op line@time", lines numbered from
// `base`.
class RecordingObserver : public CoherenceObserver {
 public:
  explicit RecordingObserver(uint64_t base) : base_(base) {}

  void OnLineEvent(const CoherenceEvent& ev) override {
    events.push_back(std::to_string(ev.host.value()) + " " +
                     std::string(CoherenceOpName(ev.op)) + " L" +
                     std::to_string((ev.line_addr - base_) / kCachelineSize) +
                     "@" + std::to_string(ev.time));
  }
  void OnHandoff(HostId, uint64_t, uint64_t, std::string_view, Nanos) override {}

  std::vector<std::string> events;

 private:
  uint64_t base_;
};

// Pins the coherence events (host, op, line, time) and the completion time
// of every accessor on a fixed script. A change inside the adapter must
// keep them bit for bit: the same events in the same order, with the same
// jitter draws.
TEST(HostAdapterGoldenTest, AccessorsKeepTheirEventsAndTiming) {
  sim::EventLoop loop;
  CxlPodConfig c;
  c.num_hosts = 2;
  c.num_mhds = 1;
  c.mhd_capacity = 1 * kMiB;
  c.dram_per_host = 1 * kMiB;
  CxlPod pod(loop, c);
  auto seg = pod.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  RecordingObserver rec(seg->base);
  pod.SetCoherenceObserver(&rec);

  auto script = [](CxlPod& pod, uint64_t b) -> Task<std::vector<Nanos>> {
    constexpr uint64_t kL = kCachelineSize;
    HostAdapter& h0 = pod.host(0);
    HostAdapter& h1 = pod.host(1);
    std::array<std::byte, 64> one{};
    std::array<std::byte, 128> two{};
    std::vector<Nanos> done;
    // Load: two misses, then a hit.
    CXLPOOL_CHECK_OK(co_await h0.Load(b, two));
    done.push_back(pod.loop().now());
    CXLPOOL_CHECK_OK(co_await h0.Load(b, one));
    done.push_back(pod.loop().now());
    // Store: a miss (read-for-ownership), then a hit.
    CXLPOOL_CHECK_OK(co_await h0.Store(b + 2 * kL, Fill(64, 0x22)));
    done.push_back(pod.loop().now());
    CXLPOOL_CHECK_OK(co_await h0.Store(b + 2 * kL, Fill(32, 0x23)));
    done.push_back(pod.loop().now());
    // StoreNt over the clean copy of line 0, then a load of that line,
    // which the pending commit holds back.
    CXLPOOL_CHECK_OK(co_await h0.StoreNt(b, Fill(64, 0x33)));
    done.push_back(pod.loop().now());
    CXLPOOL_CHECK_OK(co_await h0.Load(b, one));
    done.push_back(pod.loop().now());
    CXLPOOL_CHECK(one[0] == std::byte{0x33});
    // DmaWrite over the clean copy of line 1.
    CXLPOOL_CHECK_OK(co_await h0.DmaWrite(b + kL, Fill(64, 0x44)));
    done.push_back(pod.loop().now());
    // DmaRead: a snoop hit on dirty line 2, then a miss on line 3.
    CXLPOOL_CHECK_OK(co_await h0.DmaRead(b + 2 * kL, one));
    done.push_back(pod.loop().now());
    CXLPOOL_CHECK_OK(co_await h0.DmaRead(b + 3 * kL, one));
    done.push_back(pod.loop().now());
    // Flush writes dirty line 2 back.
    CXLPOOL_CHECK_OK(co_await h0.Flush(b + 2 * kL, 64));
    done.push_back(pod.loop().now());
    // ReadFresh over dirty line 4 and clean line 5 on the other host:
    // write line 4 back, drop line 5, then load both.
    CXLPOOL_CHECK_OK(co_await h1.Load(b + 5 * kL, one));
    done.push_back(pod.loop().now());
    CXLPOOL_CHECK_OK(co_await h1.Store(b + 4 * kL, Fill(64, 0x55)));
    done.push_back(pod.loop().now());
    CXLPOOL_CHECK_OK(co_await h1.ReadFresh(b + 4 * kL, two));
    done.push_back(pod.loop().now());
    CXLPOOL_CHECK(two[0] == std::byte{0x55});
    co_return done;
  };
  std::vector<Nanos> done = RunBlocking(loop, script(pod, seg->base));
  pod.SetCoherenceObserver(nullptr);

  EXPECT_EQ(done, (std::vector<Nanos>{291, 294, 549, 552, 555, 1148, 1151, 1522,
                                       1820, 2056, 2361, 2623, 3236}));
  EXPECT_EQ(rec.events, (std::vector<std::string>{
                            "0 load-miss L0@0",
                            "0 load-miss L1@0",
                            "0 load-hit L0@291",
                            "0 store-miss L2@294",
                            "0 store-hit L2@549",
                            "0 nt-store L0@552",
                            "0 load-miss L0@801",
                            "0 invalidate-drop L1@1148",
                            "0 dma-write L1@1148",
                            "0 dma-read-hit L2@1151",
                            "0 dma-read-miss L3@1522",
                            "0 flush-writeback L2@2056",
                            "1 load-miss L5@2056",
                            "1 store-miss L4@2361",
                            "1 invalidate-drop L5@2623",
                            "1 flush-writeback L4@2874",
                            "1 load-miss L4@2874",
                            "1 load-miss L5@2874",
                        }));
}

TEST_F(CxlPodTest, StatsAccumulate) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  HostAdapter& h = pod_.host(2);
  auto t = [](HostAdapter& host, uint64_t a) -> Task<> {
    auto payload = Bytes({1});
    CXLPOOL_CHECK_OK(co_await host.StoreNt(a, payload));
    std::array<std::byte, 1> b{};
    CXLPOOL_CHECK_OK(co_await host.Load(a, b));
    CXLPOOL_CHECK_OK(co_await host.Flush(a, 1));
  };
  RunBlocking(loop_, t(h, seg->base));
  EXPECT_EQ(HostCount(2, "host.nt_stores"), 1u);
  EXPECT_EQ(HostCount(2, "host.loads"), 1u);
  EXPECT_EQ(HostCount(2, "host.flushes"), 1u);
  EXPECT_EQ(HostCount(2, "host.lost_dirty_lines"), 0u);
}


// --- Replicated regions (Sec. 5 "highly-available CXL pods") ---

TEST_F(CxlPodTest, ReplicationRequiresEnoughHealthyMhds) {
  EXPECT_FALSE(ReplicatedRegion::Create(pod_.pool(), 4096, 3, RegionScope()).ok());  // only 2 MHDs
  pod_.FailMhd(MhdId(1));
  EXPECT_FALSE(ReplicatedRegion::Create(pod_.pool(), 4096, 2, RegionScope()).ok());
  pod_.RepairMhd(MhdId(1));
  auto region = ReplicatedRegion::Create(pod_.pool(), 4096, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->replicas(), 2);
  // Replicas land on DISTINCT MHDs.
  EXPECT_NE(region->segment(0).mhds[0], region->segment(1).mhds[0]);
}

TEST_F(CxlPodTest, ReplicatedReadSurvivesMhdFailure) {
  auto region = ReplicatedRegion::Create(pod_.pool(), 4096, 2, RegionScope());
  ASSERT_TRUE(region.ok());

  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<std::pair<int, int>> {
    auto payload = Bytes({42, 42, 42, 42});
    CXLPOOL_CHECK_OK(co_await r.Publish(pod.host(0), 0, payload));
    co_await sim::Delay(pod.loop(), kMicrosecond);

    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await r.ReadFresh(pod.host(1), 0, seen));
    int before = static_cast<int>(seen[0]);

    // Kill the primary replica's MHD; reads transparently fail over.
    pod.FailMhd(r.segment(0).mhds[0]);
    seen.fill(std::byte{0});
    CXLPOOL_CHECK_OK(co_await r.ReadFresh(pod.host(1), 0, seen));
    int after = static_cast<int>(seen[0]);
    co_return std::make_pair(before, after);
  };
  auto [before, after] = RunBlocking(loop_, t(*region, pod_));
  EXPECT_EQ(before, 42);
  EXPECT_EQ(after, 42);
  EXPECT_EQ(RegionCount("replication.failover_reads"), 1u);
}

TEST_F(CxlPodTest, ReplicatedWriteDegradesGracefully) {
  auto region = ReplicatedRegion::Create(pod_.pool(), 4096, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  pod_.FailMhd(region->segment(1).mhds[0]);  // secondary down

  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<Status> {
    auto payload = Bytes({7, 7, 7, 7});
    co_return co_await r.Publish(pod.host(0), 0, payload);
  };
  EXPECT_TRUE(RunBlocking(loop_, t(*region, pod_)).ok());
  EXPECT_EQ(RegionCount("replication.degraded_writes"), 1u);

  // Both replicas down -> the write finally fails.
  pod_.FailMhd(region->segment(0).mhds[0]);
  EXPECT_FALSE(RunBlocking(loop_, t(*region, pod_)).ok());
}

TEST_F(CxlPodTest, ReplicatedWriteDegradesWhenWriterLinkDown) {
  auto region = ReplicatedRegion::Create(pod_.pool(), 4096, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  // Sever only the writer's link to the secondary replica's MHD. The MHD
  // itself stays healthy — other hosts still reach both copies.
  pod_.FailLink(HostId(0), region->segment(1).mhds[0]);

  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<std::pair<Status, int>> {
    auto payload = Bytes({9, 9, 9, 9});
    Status wr = co_await r.Publish(pod.host(0), 0, payload);
    co_await sim::Delay(pod.loop(), kMicrosecond);
    // A reader with intact links sees the primary copy, no failover.
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await r.ReadFresh(pod.host(1), 0, seen));
    co_return std::make_pair(wr, static_cast<int>(seen[0]));
  };
  auto [wr, seen] = RunBlocking(loop_, t(*region, pod_));
  EXPECT_TRUE(wr.ok());  // one reachable replica is enough
  EXPECT_EQ(RegionCount("replication.degraded_writes"), 1u);
  EXPECT_EQ(RegionCount("replication.failover_reads"), 0u);
  EXPECT_EQ(seen, 9);
}

TEST_F(CxlPodTest, ReplicatedReadFailsOverWhenReaderLinkDown) {
  auto region = ReplicatedRegion::Create(pod_.pool(), 4096, 2, RegionScope());
  ASSERT_TRUE(region.ok());

  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<int> {
    auto payload = Bytes({5, 5, 5, 5});
    CXLPOOL_CHECK_OK(co_await r.Publish(pod.host(0), 0, payload));
    co_await sim::Delay(pod.loop(), kMicrosecond);
    // The reader loses its path to the PRIMARY replica only; the copy on
    // the other MHD serves the read.
    pod.FailLink(HostId(1), r.segment(0).mhds[0]);
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await r.ReadFresh(pod.host(1), 0, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop_, t(*region, pod_)), 5);
  EXPECT_EQ(RegionCount("replication.failover_reads"), 1u);
  // The writer's links were never touched: the publish was clean.
  EXPECT_EQ(RegionCount("replication.degraded_writes"), 0u);
}

TEST_F(CxlPodTest, ReplicatedRegionBoundsChecked) {
  auto region = ReplicatedRegion::Create(pod_.pool(), 128, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<Status> {
    std::array<std::byte, 64> buf{};
    co_return co_await r.Publish(pod.host(0), 100, buf);  // 100+64 > 128
  };
  EXPECT_EQ(RunBlocking(loop_, t(*region, pod_)).code(), StatusCode::kOutOfRange);
}

TEST_F(CxlPodTest, ReplicatedReadWithAllReplicasDownErrorsOut) {
  // The worst case must be an ERROR, never a hang: a control-plane caller
  // blocked forever on dead memory is itself a liveness bug.
  auto region = ReplicatedRegion::Create(pod_.pool(), 4096, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<Status> {
    auto payload = Bytes({3, 3, 3, 3});
    CXLPOOL_CHECK_OK(co_await r.Publish(pod.host(0), 0, payload));
    pod.FailMhd(r.segment(0).mhds[0]);
    pod.FailMhd(r.segment(1).mhds[0]);
    std::array<std::byte, 4> seen{};
    co_return co_await r.ReadFresh(pod.host(1), 0, seen);
  };
  Status st = RunBlocking(loop_, t(*region, pod_));  // returning at all = no hang
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
}

// --- Media poison + scrub (gray-failure RAS) ---

TEST_F(CxlPodTest, PoisonedLineReturnsDataLossOnFreshLoad) {
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto t = [](CxlPod& pod, uint64_t base) -> Task<std::pair<Status, Status>> {
    auto payload = Fill(64, 0x5a);
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(base, payload));
    // nt-stores are posted: wait past the media commit, or the in-flight
    // full-line write would land AFTER the poison and heal it.
    co_await sim::Delay(pod.loop(), kMicrosecond);
    pod.PoisonLine(base);
    std::array<std::byte, 64> out{};
    Status poisoned = co_await pod.host(1).ReadFresh(base, out);
    // A full-line overwrite is fresh data + fresh ECC: the line heals.
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(base, payload));
    co_await sim::Delay(pod.loop(), kMicrosecond);
    Status healed = co_await pod.host(1).ReadFresh(base, out);
    co_return std::make_pair(poisoned, healed);
  };
  auto [poisoned, healed] = RunBlocking(loop_, t(pod_, seg->base));
  EXPECT_EQ(poisoned.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(healed.ok());
  EXPECT_EQ(HostCount(1, "host.poisoned_reads"), 1u);
  EXPECT_EQ(pod_.PoisonedLineCount(), 0u);
}

TEST_F(CxlPodTest, ScrubberRepairsPoisonedReplicaByteIdentically) {
  auto region = ReplicatedRegion::Create(pod_.pool(), 256, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<std::vector<std::byte>> {
    std::vector<std::byte> content(256);
    for (size_t i = 0; i < content.size(); ++i) {
      content[i] = static_cast<std::byte>(i * 7 + 1);
    }
    CXLPOOL_CHECK_OK(co_await r.Publish(pod.host(0), 0, content));
    co_await sim::Delay(pod.loop(), kMicrosecond);  // let posted writes commit
    // Poison two lines of the PRIMARY replica: readers would failover,
    // but the data on that media is gone until the scrubber repairs it.
    pod.PoisonLine(r.segment(0).base + 0);
    pod.PoisonLine(r.segment(0).base + 128);
    CXLPOOL_CHECK_OK(co_await r.ScrubOnce(pod.host(1)));
    // Read back the PRIMARY copy directly: repair must be byte-identical.
    std::vector<std::byte> seen(256);
    CXLPOOL_CHECK_OK(co_await pod.host(2).ReadFresh(r.segment(0).base, seen));
    co_return seen;
  };
  std::vector<std::byte> seen = RunBlocking(loop_, t(*region, pod_));
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::byte>(i * 7 + 1)) << "byte " << i;
  }
  EXPECT_EQ(pod_.PoisonedLineCount(), 0u);
  EXPECT_GE(RegionCount("scrub.repairs"), 2u);
  EXPECT_EQ(RegionCount("scrub.unrecoverable"), 0u);
  EXPECT_GE(RegionCount("scrub.lines_scrubbed"), 4u);  // 4 lines per sweep
}

TEST_F(CxlPodTest, ScrubberRepairsDivergentReplica) {
  // Divergence without poison: one replica's media bytes get corrupted
  // in place (e.g. a torn partial write). The checksum fingers the bad
  // copy even though both replicas read back "successfully".
  auto region = ReplicatedRegion::Create(pod_.pool(), 64, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<int> {
    auto content = Fill(64, 0x44);
    CXLPOOL_CHECK_OK(co_await r.Publish(pod.host(0), 0, content));
    co_await sim::Delay(pod.loop(), kMicrosecond);
    // Corrupt replica 1 behind the region's back.
    auto garbage = Fill(64, 0x99);
    CXLPOOL_CHECK_OK(co_await pod.host(2).StoreNt(r.segment(1).base, garbage));
    CXLPOOL_CHECK_OK(co_await r.ScrubOnce(pod.host(1)));
    std::array<std::byte, 64> seen{};
    CXLPOOL_CHECK_OK(co_await pod.host(2).ReadFresh(r.segment(1).base, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop_, t(*region, pod_)), 0x44);
  EXPECT_GE(RegionCount("scrub.repairs"), 1u);
}

TEST_F(CxlPodTest, ScrubberFlagsBothReplicasDivergedAsConflict) {
  // Split-brain damage: BOTH replicas scribbled past the published
  // content (e.g. each side of a partition wrote independently). No copy
  // matches the checksum, so there is no authority — the scrubber must
  // converge on the DETERMINISTIC winner (lowest healthy index), count a
  // conflict, and NEVER byte-merge or resolve silently.
  auto region = ReplicatedRegion::Create(pod_.pool(), 64, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<std::pair<int, int>> {
    auto content = Fill(64, 0x44);
    CXLPOOL_CHECK_OK(co_await r.Publish(pod.host(0), 0, content));
    co_await sim::Delay(pod.loop(), kMicrosecond);
    // Both copies diverge, DIFFERENTLY, behind the region's back.
    CXLPOOL_CHECK_OK(
        co_await pod.host(2).StoreNt(r.segment(0).base, Fill(64, 0xA1)));
    CXLPOOL_CHECK_OK(
        co_await pod.host(2).StoreNt(r.segment(1).base, Fill(64, 0xB2)));
    CXLPOOL_CHECK_OK(co_await r.ScrubOnce(pod.host(1)));
    std::array<std::byte, 64> rep0{};
    std::array<std::byte, 64> rep1{};
    CXLPOOL_CHECK_OK(co_await pod.host(2).ReadFresh(r.segment(0).base, rep0));
    CXLPOOL_CHECK_OK(co_await pod.host(2).ReadFresh(r.segment(1).base, rep1));
    co_return std::make_pair(static_cast<int>(rep0[0]),
                             static_cast<int>(rep1[0]));
  };
  auto [rep0, rep1] = RunBlocking(loop_, t(*region, pod_));
  // Replica 0 wins (lowest healthy index); replica 1 is repaired FROM it —
  // never a byte-merge, never replica 1's content.
  EXPECT_EQ(rep0, 0xA1);
  EXPECT_EQ(rep1, 0xA1);
  EXPECT_GE(RegionCount("scrub.conflicts"), 1u);
  EXPECT_EQ(RegionCount("scrub.unrecoverable"), 0u);

  // The adopted winner settles: the next sweep sees a consistent line and
  // raises no further conflicts.
  uint64_t conflicts_after_first = RegionCount("scrub.conflicts");
  RunBlocking(loop_, [](ReplicatedRegion& r, CxlPod& pod) -> Task<> {
    CXLPOOL_CHECK_OK(co_await r.ScrubOnce(pod.host(1)));
  }(*region, pod_));
  EXPECT_EQ(RegionCount("scrub.conflicts"), conflicts_after_first);
}

TEST_F(CxlPodTest, ScrubberDoesNotCountTransientOutageAsUnrecoverable) {
  auto region = ReplicatedRegion::Create(pod_.pool(), 64, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  auto t = [](ReplicatedRegion& r, CxlPod& pod) -> Task<> {
    auto content = Fill(64, 0x21);
    CXLPOOL_CHECK_OK(co_await r.Publish(pod.host(0), 0, content));
    // Whole pool unreachable from the scrubbing host: nothing is
    // readable, but nothing is LOST — the sweep must not cry wolf.
    pod.FailLink(HostId(1), MhdId(0));
    pod.FailLink(HostId(1), MhdId(1));
    (void)co_await r.ScrubOnce(pod.host(1));
    pod.RepairLink(HostId(1), MhdId(0));
    pod.RepairLink(HostId(1), MhdId(1));
    CXLPOOL_CHECK_OK(co_await r.ScrubOnce(pod.host(1)));
    co_return;
  };
  RunBlocking(loop_, t(*region, pod_));
  EXPECT_EQ(RegionCount("scrub.unrecoverable"), 0u);
}

TEST_F(CxlPodTest, ScrubLoopRunsUntilStopped) {
  auto region = ReplicatedRegion::Create(pod_.pool(), 64, 2, RegionScope());
  ASSERT_TRUE(region.ok());
  RunBlocking(loop_, [](ReplicatedRegion& r, CxlPod& pod) -> Task<> {
    auto content = Fill(64, 1);
    CXLPOOL_CHECK_OK(co_await r.Publish(pod.host(0), 0, content));
  }(*region, pod_));
  sim::StopToken stop;
  sim::Spawn(region->ScrubLoop(pod_.host(0), 10 * kMicrosecond, stop));
  pod_.PoisonLine(region->segment(0).base);
  loop_.RunFor(100 * kMicrosecond);
  EXPECT_EQ(pod_.PoisonedLineCount(), 0u);  // loop swept and repaired
  uint64_t swept = RegionCount("scrub.lines_scrubbed");
  EXPECT_GE(swept, 5u);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
  // Stopped: no further sweeps.
  EXPECT_LE(RegionCount("scrub.lines_scrubbed"), swept + 1);
}


// --- CXL 3.0 Back-Invalidate emulation (Sec. 3 ablation) ---

TEST_F(CxlPodTest, BackInvalidateMakesCachedPollsFresh) {
  pod_.pool().set_back_invalidate(true);
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());

  auto t = [](CxlPod& pod, uint64_t addr) -> Task<std::pair<int, int>> {
    std::array<std::byte, 4> seen{};
    // Reader caches the line (snoop filter learns about it).
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, seen));
    int before = static_cast<int>(seen[0]);
    // Writer publishes; hardware BI drops the reader's copy.
    auto payload = Bytes({9, 9, 9, 9});
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, payload));
    co_await sim::Delay(pod.loop(), kMicrosecond);
    // PLAIN load — no software invalidate — still sees the new value.
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, seen));
    co_return std::make_pair(before, static_cast<int>(seen[0]));
  };
  auto [before, after] = RunBlocking(loop_, t(pod_, seg->base));
  EXPECT_EQ(before, 0);
  EXPECT_EQ(after, 9);
}

TEST_F(CxlPodTest, WithoutBackInvalidateCachedPollsGoStale) {
  // Control: identical sequence with BI off (today's hardware) is stale.
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<int> {
    std::array<std::byte, 4> seen{};
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, seen));
    auto payload = Bytes({9, 9, 9, 9});
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, payload));
    co_await sim::Delay(pod.loop(), kMicrosecond);
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, seen));
    co_return static_cast<int>(seen[0]);
  };
  EXPECT_EQ(RunBlocking(loop_, t(pod_, seg->base)), 0);
}

TEST_F(CxlPodTest, BackInvalidateChargesSnoopLatency) {
  pod_.pool().set_back_invalidate(true);
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());

  auto t = [](CxlPod& pod, uint64_t addr, bool warm_reader) -> Task<Nanos> {
    if (warm_reader) {
      std::array<std::byte, 4> b{};
      CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, b));
    }
    auto payload = Bytes({1, 1, 1, 1});
    Nanos start = pod.loop().now();
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, payload));
    co_return pod.loop().now() - start;
  };
  Nanos no_sharers = RunBlocking(loop_, t(pod_, seg->base + 2048, false));
  Nanos with_sharer = RunBlocking(loop_, t(pod_, seg->base, true));
  EXPECT_GE(with_sharer, no_sharers + pod_.host(0).timing().bi_snoop);
}

TEST_F(CxlPodTest, BackInvalidateOnlyHitsActualSharers) {
  pod_.pool().set_back_invalidate(true);
  auto seg = pod_.pool().Allocate(4096);
  ASSERT_TRUE(seg.ok());
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    std::array<std::byte, 4> b{};
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, b));        // sharer
    CXLPOOL_CHECK_OK(co_await pod.host(2).Load(addr + 512, b));  // other line
    auto payload = Bytes({5});
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, payload));
  };
  RunBlocking(loop_, t(pod_, seg->base));
  // Host 1's copy of the written line was snooped away...
  EXPECT_EQ(pod_.host(1).cache().Peek(CachelineFloor(seg->base)), nullptr);
  // ...host 2's copy of an unrelated line survived.
  EXPECT_NE(pod_.host(2).cache().Peek(CachelineFloor(seg->base + 512)), nullptr);
}

}  // namespace
}  // namespace cxlpool::cxl
