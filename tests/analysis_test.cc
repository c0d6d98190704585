// Tests for analysis::CoherenceChecker — the software-coherence race
// detector. Positive tests drive the protocol correctly and assert a
// clean report; negative tests deliberately break one protocol step each
// and assert that exactly the matching violation type fires, with
// correct provenance.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/analysis/coherence_checker.h"
#include "src/cxl/host_adapter.h"
#include "src/cxl/pod.h"
#include "src/msg/doorbell.h"
#include "src/msg/ring.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::analysis {
namespace {

using cxl::CxlPod;
using cxl::CxlPodConfig;
using cxl::HostAdapter;
using sim::RunBlocking;
using sim::Task;

using ViolationType = CoherenceChecker::ViolationType;

std::vector<std::byte> Fill(size_t n, uint8_t v) {
  return std::vector<std::byte>(n, std::byte{v});
}

class CoherenceCheckerTest : public ::testing::Test {
 protected:
  CoherenceCheckerTest() : pod_(loop_, MakeConfig()) {
    checker_.AttachTo(pod_);
    auto seg = pod_.pool().Allocate(64 * kKiB);
    CXLPOOL_CHECK(seg.ok());
    base_ = seg->base;
  }

  static CxlPodConfig MakeConfig() {
    CxlPodConfig c;
    c.num_hosts = 3;
    c.num_mhds = 2;
    c.mhd_capacity = 8 * kMiB;
    c.dram_per_host = 8 * kMiB;
    return c;
  }

  // Asserts the checker saw exactly `n` violations, all of type `type`.
  void ExpectOnly(ViolationType type, uint64_t n) {
    EXPECT_EQ(checker_.count(type), n) << checker_.Report();
    EXPECT_EQ(checker_.violation_count(), n) << checker_.Report();
  }

  sim::EventLoop loop_;
  CxlPod pod_;
  CoherenceChecker checker_;
  uint64_t base_ = 0;
};

// --- Clean protocol runs ---

TEST_F(CoherenceCheckerTest, PublishConsumeProtocolIsClean) {
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    auto data = Fill(256, 0xab);
    auto out = Fill(256, 0);
    // Publisher: nt-store. Consumer: ReadFresh. Repeat with
    // roles swapped to exercise both directions.
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(1).ReadFresh(addr, out));
    CXLPOOL_CHECK_OK(co_await pod.host(1).StoreNt(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(0).ReadFresh(addr, out));
  };
  RunBlocking(loop_, t(pod_, base_));
  EXPECT_EQ(checker_.violation_count(), 0u) << checker_.Report();
  EXPECT_GT(checker_.events_seen(), 0u);
}

TEST_F(CoherenceCheckerTest, CachedStoreThenFlushThenHandoffIsClean) {
  auto t = [](CxlPod& pod, uint64_t addr, uint64_t db) -> Task<> {
    auto data = Fill(128, 0x11);
    CXLPOOL_CHECK_OK(co_await pod.host(0).Store(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(0).Flush(addr, data.size()));
    msg::DoorbellSender bell(pod.host(0), db);
    bell.SetAnnouncedRegion(addr, data.size());
    CXLPOOL_CHECK_OK(co_await bell.Ring(1));
  };
  RunBlocking(loop_, t(pod_, base_, base_ + 4 * kKiB));
  EXPECT_EQ(checker_.violation_count(), 0u) << checker_.Report();
}

TEST_F(CoherenceCheckerTest, MessageRingTrafficIsClean) {
  msg::RingConfig rc;
  rc.base = base_;
  rc.slots = 16;
  auto t = [](CxlPod& pod, msg::RingConfig rc) -> Task<> {
    msg::RingSender tx(pod.host(0), rc);
    msg::RingReceiver rx(pod.host(1), rc);
    auto msg = Fill(200, 0x7e);
    for (int i = 0; i < 50; ++i) {
      CXLPOOL_CHECK_OK(co_await tx.Send(msg));
      std::vector<std::byte> got;
      CXLPOOL_CHECK_OK(
          co_await rx.Recv(&got, pod.loop().now() + 10 * kMillisecond));
      CXLPOOL_CHECK(got.size() == msg.size());
    }
  };
  RunBlocking(loop_, t(pod_, rc));
  EXPECT_EQ(checker_.violation_count(), 0u) << checker_.Report();
}

TEST_F(CoherenceCheckerTest, BackInvalidateMakesCachedLoadsClean) {
  pod_.pool().set_back_invalidate(true);
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    auto data = Fill(64, 0x2c);
    auto out = Fill(64, 0);
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));  // cache it
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, data));  // BI snoop
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));  // refetch, fresh
    CXLPOOL_CHECK(std::memcmp(out.data(), data.data(), out.size()) == 0);
  };
  RunBlocking(loop_, t(pod_, base_));
  EXPECT_EQ(checker_.violation_count(), 0u) << checker_.Report();
}

// --- Negative tests: one deliberately broken protocol step each ---

TEST_F(CoherenceCheckerTest, MissedInvalidateFiresStaleRead) {
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    auto data = Fill(64, 0x9f);
    auto out = Fill(64, 0);
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));      // caches v0
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, data));  // publishes v1
    // BUG: a plain Load, not ReadFresh — served from the stale copy.
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));
  };
  RunBlocking(loop_, t(pod_, base_));
  ExpectOnly(ViolationType::kStaleRead, 1);

  const auto& v = checker_.violations().at(0);
  EXPECT_EQ(v.type, ViolationType::kStaleRead);
  EXPECT_EQ(v.offender, HostId(1));
  EXPECT_EQ(v.other, HostId(0));  // the publisher it missed
  EXPECT_EQ(v.line_addr, base_);
  EXPECT_EQ(v.observed_version, 0u);
  EXPECT_EQ(v.latest_version, 1u);
  // Provenance must show the publish this reader missed.
  bool saw_publish = false;
  for (const auto& a : v.provenance) {
    if (a.host == HostId(0) && a.op == cxl::CoherenceOp::kStoreNt) {
      saw_publish = true;
    }
  }
  EXPECT_TRUE(saw_publish) << v.ToString();
}

TEST_F(CoherenceCheckerTest, DirtyRegionAtDoorbellFiresUnpublishedHandoff) {
  auto t = [](CxlPod& pod, uint64_t addr, uint64_t db) -> Task<> {
    auto data = Fill(64, 0x33);
    // BUG: cached store, no Flush before announcing the region.
    CXLPOOL_CHECK_OK(co_await pod.host(0).Store(addr, data));
    msg::DoorbellSender bell(pod.host(0), db);
    bell.SetAnnouncedRegion(addr, data.size());
    CXLPOOL_CHECK_OK(co_await bell.Ring(1));
  };
  RunBlocking(loop_, t(pod_, base_, base_ + 4 * kKiB));
  ExpectOnly(ViolationType::kUnpublishedHandoff, 1);

  const auto& v = checker_.violations().at(0);
  EXPECT_EQ(v.offender, HostId(0));
  EXPECT_EQ(v.line_addr, base_);
  EXPECT_NE(v.context.find("doorbell-ring"), std::string::npos);
}

TEST_F(CoherenceCheckerTest, NtStoreOverOwnDirtyLineFiresLostPublish) {
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    auto data = Fill(64, 0x44);
    // BUG: cached store left dirty, then an nt-store to the same line
    // discards the dirty bytes (the adapter counts lost_dirty_lines).
    CXLPOOL_CHECK_OK(co_await pod.host(0).Store(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, data));
  };
  RunBlocking(loop_, t(pod_, base_));
  ExpectOnly(ViolationType::kLostPublish, 1);
  // The violation attributes the adapter's anonymous counter.
  EXPECT_EQ(CounterValue(pod_.metrics(), "host.lost_dirty_lines", HostLabels(0)), 1u);
  EXPECT_EQ(checker_.violations().at(0).offender, HostId(0));
}

TEST_F(CoherenceCheckerTest, PublishOverRemoteDirtyLineFiresLostPublish) {
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    auto data = Fill(64, 0x55);
    // BUG: host 1 has unpublished dirty bytes when host 0 publishes the
    // same line — host 1's eventual write-back races the publish.
    CXLPOOL_CHECK_OK(co_await pod.host(1).Store(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, data));
  };
  RunBlocking(loop_, t(pod_, base_));
  ExpectOnly(ViolationType::kLostPublish, 1);
  const auto& v = checker_.violations().at(0);
  EXPECT_EQ(v.offender, HostId(0));
  EXPECT_EQ(v.other, HostId(1));
}

TEST_F(CoherenceCheckerTest, StaleWritebackClobberFiresLostPublish) {
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    auto data = Fill(64, 0x66);
    // Host 1 dirties the line at v0; host 0 publishes v1 (lost-publish #1:
    // publish over remote dirty); host 1 then flushes its stale full-line
    // copy over the newer publish (lost-publish #2: stale write-back).
    CXLPOOL_CHECK_OK(co_await pod.host(1).Store(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(1).Flush(addr, data.size()));
  };
  RunBlocking(loop_, t(pod_, base_));
  ExpectOnly(ViolationType::kLostPublish, 2);
}

TEST_F(CoherenceCheckerTest, ConcurrentCachedWritersFireWriteWriteRace) {
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    auto data = Fill(64, 0x77);
    // BUG: two hosts hold dirty copies of the same line; last write-back
    // wins and the other write vanishes.
    CXLPOOL_CHECK_OK(co_await pod.host(0).Store(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(1).Store(addr, data));
  };
  RunBlocking(loop_, t(pod_, base_));
  ExpectOnly(ViolationType::kWriteWriteRace, 1);
  const auto& v = checker_.violations().at(0);
  EXPECT_EQ(v.offender, HostId(1));  // the second writer trips the check
  EXPECT_EQ(v.other, HostId(0));
}

TEST_F(CoherenceCheckerTest, ReportNamesEachViolationType) {
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    auto data = Fill(64, 0x88);
    auto out = Fill(64, 0);
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));  // stale read
  };
  RunBlocking(loop_, t(pod_, base_));
  std::string report = checker_.Report();
  EXPECT_NE(report.find("stale-read"), std::string::npos) << report;
  EXPECT_NE(report.find("recent accesses"), std::string::npos) << report;
}

TEST_F(CoherenceCheckerTest, DetachedCheckerSeesNothing) {
  checker_.Detach();
  auto t = [](CxlPod& pod, uint64_t addr) -> Task<> {
    auto data = Fill(64, 0x99);
    auto out = Fill(64, 0);
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, data));
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));  // stale, unseen
  };
  uint64_t before = checker_.events_seen();
  RunBlocking(loop_, t(pod_, base_));
  EXPECT_EQ(checker_.events_seen(), before);
  EXPECT_EQ(checker_.violation_count(), 0u);
}

}  // namespace
}  // namespace cxlpool::analysis
