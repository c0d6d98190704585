// Property-style and parameterized sweeps over the core invariants:
// coherence correctness for random access patterns, ring integrity for
// random message sizes, histogram accuracy across magnitudes, bandwidth
// conservation, and packing invariants.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "src/analysis/coherence_checker.h"
#include "src/common/check.h"
#include "src/cxl/pod.h"
#include "src/msg/ring.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"
#include "src/stranding/binpack.h"

namespace cxlpool {
namespace {

using sim::RunBlocking;
using sim::Spawn;
using sim::Task;

// --- Coherence property: for ANY interleaving of writers using the
// publish protocol, a reader using the consume protocol always sees the
// latest committed value, and plain cached polling may (legitimately) see
// stale ones but never garbage. ---

class CoherencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoherencePropertyTest, PublishConsumeNeverTearsOrCorrupts) {
  sim::EventLoop loop;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 3;
  pc.num_mhds = 2;
  pc.mhd_capacity = 16 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  cxl::CxlPod pod(loop, pc);
  // Random interleavings must also be race-free under the shadow-state
  // checker, not just untorn at the byte level.
  analysis::CoherenceChecker checker;
  checker.AttachTo(pod);
  auto seg = pod.pool().Allocate(64 * kKiB);
  ASSERT_TRUE(seg.ok());

  uint64_t seed = GetParam();
  // Writers publish versioned 64 B records (version stamped in every u64
  // of the line); the reader checks internal consistency of every record.
  auto writer = [](cxl::HostAdapter& h, uint64_t base, uint64_t seed,
                   sim::StopToken& stop) -> Task<> {
    sim::Rng rng(seed);
    uint64_t version = 0;
    while (!stop.stopped()) {
      uint64_t slot = rng.UniformInt(uint64_t{16});
      ++version;
      std::array<std::byte, 64> line;
      for (int i = 0; i < 8; ++i) {
        std::memcpy(line.data() + i * 8, &version, 8);
      }
      CXLPOOL_CHECK_OK(co_await h.StoreNt(base + slot * 64, line));
      co_await sim::Delay(h.loop(), rng.UniformInt(int64_t{50}, int64_t{500}));
    }
  };
  auto reader = [](cxl::HostAdapter& h, uint64_t base, int rounds,
                   bool& torn) -> Task<> {
    for (int r = 0; r < rounds; ++r) {
      for (uint64_t slot = 0; slot < 16; ++slot) {
        std::array<std::byte, 64> line;
        CXLPOOL_CHECK_OK(co_await h.ReadFresh(base + slot * 64, line));
        uint64_t first;
        std::memcpy(&first, line.data(), 8);
        for (int i = 1; i < 8; ++i) {
          uint64_t v;
          std::memcpy(&v, line.data() + i * 8, 8);
          if (v != first) {
            torn = true;  // a torn/corrupt record: protocol violation
          }
        }
      }
      co_await sim::Delay(h.loop(), 300);
    }
  };

  sim::StopToken stop;
  bool torn = false;
  Spawn(writer(pod.host(0), seg->base, seed, stop));
  Spawn(writer(pod.host(1), seg->base, seed * 31 + 7, stop));
  auto drive = [](cxl::CxlPod& pod, uint64_t base, bool& torn_flag,
                  sim::StopToken& st,
                  decltype(reader)& rd) -> Task<> {
    co_await rd(pod.host(2), base, 200, torn_flag);
    st.Stop();
  };
  RunBlocking(loop, drive(pod, seg->base, torn, stop, reader));
  EXPECT_FALSE(torn);
  EXPECT_EQ(checker.violation_count(), 0u) << checker.Report();
  EXPECT_EQ(pod.TotalLostDirtyLines(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherencePropertyTest,
                         ::testing::Values(1, 17, 23981, 777777));

// --- Ring property: arbitrary message sizes arrive intact, in order, for
// any power-of-two ring size. ---

struct RingParam {
  uint32_t slots;
  uint64_t seed;
};

class RingPropertyTest : public ::testing::TestWithParam<RingParam> {};

TEST_P(RingPropertyTest, RandomSizedMessagesArriveInOrderIntact) {
  sim::EventLoop loop;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 16 * kMiB;
  pc.dram_per_host = 1 * kMiB;
  cxl::CxlPod pod(loop, pc);
  analysis::CoherenceChecker checker;
  checker.AttachTo(pod);
  RingParam param = GetParam();

  auto seg = pod.pool().Allocate(msg::RingFootprint(param.slots));
  ASSERT_TRUE(seg.ok());
  msg::RingConfig rc;
  rc.base = seg->base;
  rc.slots = param.slots;
  msg::RingSender tx(pod.host(0), rc);
  msg::RingReceiver rx(pod.host(1), rc);

  constexpr int kCount = 120;
  // Messages must fit the ring: at most slots * payload-per-slot bytes.
  const uint64_t max_bytes =
      std::min<uint64_t>(800, param.slots * msg::kSlotPayload);
  auto producer = [max_bytes](msg::RingSender& s, uint64_t seed) -> Task<> {
    sim::Rng rng(seed);
    for (int i = 0; i < kCount; ++i) {
      size_t n = rng.UniformInt(max_bytes);  // multi-slot sizes included
      std::vector<std::byte> m(n);
      sim::Rng content(seed * 1000 + static_cast<uint64_t>(i));
      for (auto& b : m) {
        b = std::byte{static_cast<uint8_t>(content.NextU32())};
      }
      CXLPOOL_CHECK_OK(co_await s.Send(m));
    }
  };
  auto consumer = [](msg::RingReceiver& r, sim::EventLoop& loop, uint64_t seed,
                     int& ok_count) -> Task<> {
    for (int i = 0; i < kCount; ++i) {
      std::vector<std::byte> m;
      CXLPOOL_CHECK_OK(co_await r.Recv(&m, loop.now() + 100 * kMillisecond));
      sim::Rng content(seed * 1000 + static_cast<uint64_t>(i));
      bool good = true;
      for (auto& b : m) {
        if (b != std::byte{static_cast<uint8_t>(content.NextU32())}) {
          good = false;
        }
      }
      if (good) {
        ++ok_count;
      }
    }
  };

  int ok_count = 0;
  Spawn(producer(tx, param.seed));
  auto drive = [&]() -> Task<> { co_await consumer(rx, loop, param.seed, ok_count); };
  RunBlocking(loop, drive());
  EXPECT_EQ(ok_count, kCount);
  EXPECT_EQ(checker.violation_count(), 0u) << checker.Report();
  EXPECT_EQ(pod.TotalLostDirtyLines(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Rings, RingPropertyTest,
    ::testing::Values(RingParam{8, 1}, RingParam{16, 2}, RingParam{64, 3},
                      RingParam{256, 4}, RingParam{32, 99}),
    [](const auto& info) {
      return "slots" + std::to_string(info.param.slots) + "seed" +
             std::to_string(info.param.seed);
    });

// --- Histogram property: percentile error stays within the sub-bucket
// bound across magnitudes. ---

class HistogramPropertyTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(HistogramPropertyTest, RelativeErrorBounded) {
  int64_t scale = GetParam();
  sim::Histogram h;
  sim::Rng rng(42);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(scale)));
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    int64_t exact = values[static_cast<size_t>(q * (values.size() - 1))];
    int64_t approx = h.Percentile(q);
    if (exact > 256) {  // below the linear region everything is exact
      EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                  static_cast<double>(exact) * 0.05)
          << "q=" << q << " scale=" << scale;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramPropertyTest,
                         ::testing::Values(100, 10000, 1000000, 100000000));

// --- Bandwidth queue property: total transfer time is conserved (no work
// created or destroyed) for any arrival pattern. ---

TEST(BandwidthPropertyTest, WorkConservation) {
  sim::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    double rate = rng.Uniform(1.0, 50.0);
    sim::BandwidthQueue q(rate);
    uint64_t total_bytes = 0;
    Nanos now = 0;
    Nanos last_completion = 0;
    for (int i = 0; i < 100; ++i) {
      now += static_cast<Nanos>(rng.Exponential(200));
      uint64_t bytes = 64 + rng.UniformInt(uint64_t{8192});
      total_bytes += bytes;
      last_completion = q.Acquire(now, bytes);
    }
    // The link can never finish faster than total_bytes / rate.
    double min_time = static_cast<double>(total_bytes) / rate;
    EXPECT_GE(static_cast<double>(last_completion) + 100.0, min_time);
    // Monotone completions by construction.
    EXPECT_EQ(q.next_free(), last_completion);
  }
}

// --- Bin-packing invariant: resources never go negative and placed VM
// demand plus stranded capacity equals total capacity. ---

class PackingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackingPropertyTest, CapacityConservation) {
  strand::ClusterConfig config = strand::PooledSsdNicConfig(16, 4);
  auto catalog = strand::DefaultVmCatalog();
  strand::StrandingResult r = strand::PackCluster(config, catalog, GetParam());
  for (int res = 0; res < strand::kResourceCount; ++res) {
    EXPECT_GE(r.stranded[res], 0.0);
    EXPECT_LE(r.stranded[res], 1.0);
  }
  EXPECT_GT(r.vms_placed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingPropertyTest,
                         ::testing::Values(1, 2, 3, 50, 1234));

// --- Zipf property: rank frequencies are monotone non-increasing in
// expectation. ---

TEST(ZipfPropertyTest, MonotoneRankFrequencies) {
  sim::Rng rng(5);
  sim::ZipfGenerator zipf(50, 1.2);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  // Compare decile sums to tolerate sampling noise.
  for (int d = 0; d + 10 < 50; d += 10) {
    int head = 0;
    int tail = 0;
    for (int i = 0; i < 10; ++i) {
      head += counts[d + i];
      tail += counts[d + 10 + i];
    }
    EXPECT_GE(head, tail) << "decile " << d;
  }
}

}  // namespace
}  // namespace cxlpool
