// Tests for src/obs/: the metrics registry (handle identity, label
// semantics, JSON export), the distributed tracer (span lifecycle,
// propagation, inertness when disabled), the flight recorder (ring
// semantics, dumps), and the end-to-end acceptance paths — one forwarded
// MMIO producing a cross-host trace, a queue pair tracing through its host
// with no wiring, and a deliberate coherence violation landing in a
// flight-recorder dump.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/coherence_checker.h"
#include "src/core/rack.h"
#include "src/obs/obs.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::obs {
namespace {

using core::Rack;
using core::RackConfig;
using sim::RunBlocking;
using sim::Task;

// --- Registry ---

TEST(RegistryTest, HandlesAreStableAndDedupedByNameAndLabels) {
  Registry reg;
  Counter* a = reg.GetCounter("ops", {{"host", "1"}});
  Counter* b = reg.GetCounter("ops", {{"host", "1"}});
  EXPECT_EQ(a, b) << "same (name, labels) must return the same handle";
  a->Add(3);
  EXPECT_EQ(b->value(), 3u);

  // Different labels (or no labels) are distinct series.
  Counter* c = reg.GetCounter("ops", {{"host", "2"}});
  Counter* d = reg.GetCounter("ops");
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.series_count(), 3u);
}

TEST(RegistryTest, LabelOrderDoesNotSplitSeries) {
  Registry reg;
  Counter* a = reg.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  Counter* b = reg.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b) << "label sets are unordered; order must not mint a new series";
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(RegistryTest, FindDoesNotCreateAndRespectsKind) {
  Registry reg;
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
  EXPECT_EQ(reg.series_count(), 0u);

  reg.GetGauge("g")->Set(-5);
  EXPECT_EQ(reg.FindCounter("g"), nullptr) << "a gauge is not a counter";
  reg.GetCounter("c")->Inc();
  EXPECT_NE(reg.FindCounter("c"), nullptr);
  EXPECT_EQ(reg.FindCounter("c")->value(), 1u);
}

TEST(ScopeTest, BaseLabelsMergeWithSeriesLabelsInAnyOrder) {
  Registry reg;
  Scope scope(reg, {{"host", "1"}});
  scope.GetCounter("ring.sends", {{"peer", "2"}})->Add(3);
  // The same series, whichever side names which label, in either order.
  const Counter* c =
      reg.FindCounter("ring.sends", {{"peer", "2"}, {"host", "1"}});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 3u);
  EXPECT_EQ(Scope(reg, {{"peer", "2"}}).GetCounter("ring.sends", {{"host", "1"}}),
            c);
  EXPECT_EQ(scope.With({{"peer", "2"}}).GetCounter("ring.sends"), c);
  EXPECT_EQ(reg.FindCounter("ring.sends", {{"host", "1"}}), nullptr)
      << "a label subset names a different series";
}

TEST(ScopeTest, ScopesNamingTheSameKeyShareOneHandle) {
  Registry reg;
  Scope a(reg, {{"device", "7"}});
  Scope b(reg, {{"device", "7"}});
  Counter* ca = a.GetCounter("nic.tx_frames");
  EXPECT_EQ(ca, b.GetCounter("nic.tx_frames"));
  EXPECT_EQ(a.GetGauge("nic.depth"), b.GetGauge("nic.depth"));
  EXPECT_EQ(a.GetHistogram("nic.lat_ns"), b.GetHistogram("nic.lat_ns"));
  EXPECT_NE(ca, Scope(reg, {{"device", "8"}}).GetCounter("nic.tx_frames"));
  EXPECT_EQ(reg.series_count(), 4u);
}

TEST(ScopeTest, ComponentRebuiltInPlaceContinuesItsCounter) {
  // A component that caches its handles at construction, rebuilt under the
  // same scope (a restarted server, a re-created stack): the new instance
  // continues the series, so counters only grow.
  struct Component {
    explicit Component(const Scope& scope)
        : served(scope.GetCounter("comp.served")) {}
    Counter* served;
  };
  Registry reg;
  Scope scope(reg, {{"host", "0"}});
  auto first = std::make_unique<Component>(scope);
  first->served->Add(5);
  first.reset();
  Component second(scope);
  second.served->Inc();
  EXPECT_EQ(reg.FindCounter("comp.served", {{"host", "0"}})->value(), 6u);
}

TEST(ScopeTest, AskingForAnExistingKeyAsAnotherKindAborts) {
  Registry reg;
  Scope scope(reg, {{"host", "0"}});
  scope.GetCounter("comp.level");
  EXPECT_DEATH(scope.GetGauge("comp.level"), "different kind");
  EXPECT_DEATH(reg.GetHistogram("comp.level", {{"host", "0"}}), "different kind");
}

TEST(RegistryTest, JsonExportCarriesKindsAndHistogramPercentiles) {
  Registry reg;
  reg.GetCounter("hits", {{"k", "v"}})->Add(9);
  reg.GetGauge("depth")->Set(-3);
  sim::Histogram* h = reg.GetHistogram("lat");
  h->Add(100);
  h->Add(200);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"name\":\"hits\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\",\"value\":9"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"gauge\",\"value\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\",\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
}

TEST(RegistryTest, BenchJsonWrapsRegistrySnapshot) {
  Registry reg;
  reg.GetCounter("n")->Add(1);
  std::string json =
      BenchJson("my_bench", {.sim_ns = 12345, .events = 7, .wall_ns = 2000}, reg);
  EXPECT_EQ(json.find("{\"bench\":\"my_bench\",\"sim_ns\":12345,\"events\":7,"
                      "\"host\":{\"wall_ns\":2000,\"events_per_wall_sec\":3500000},"
                      "\"metrics\":["),
            0u);
  EXPECT_EQ(json.back(), '}');
}

// --- Histogram / Summary edge cases the exporter relies on ---

TEST(HistogramEdgeTest, EmptyHistogramExportsZeros) {
  sim::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Percentile(0.999), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramEdgeTest, MergeIntoEmptyEqualsSource) {
  sim::Histogram src;
  src.Add(10);
  src.Add(1000);
  src.Add(100000);
  sim::Histogram dst;
  dst.MergeFrom(src);
  EXPECT_EQ(dst.count(), 3u);
  EXPECT_EQ(dst.min(), src.min());
  EXPECT_EQ(dst.max(), src.max());
  EXPECT_EQ(dst.Percentile(0.5), src.Percentile(0.5));

  // And merging an empty histogram changes nothing.
  sim::Histogram empty;
  dst.MergeFrom(empty);
  EXPECT_EQ(dst.count(), 3u);
}

TEST(HistogramEdgeTest, SingleSamplePercentilesAllReturnIt) {
  sim::Histogram h;
  h.Add(777);
  for (double p : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    // Log-bucketing bounds relative error; a single sample must round-trip
    // through every percentile within bucket resolution.
    EXPECT_NEAR(static_cast<double>(h.Percentile(p)), 777.0, 777.0 / 32.0)
        << "p=" << p;
  }
  EXPECT_EQ(h.min(), 777);
  EXPECT_EQ(h.max(), 777);
}

TEST(SummaryEdgeTest, EmptyAndSingleSample) {
  sim::Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  s.Add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// --- Tracer ---

TEST(TracerTest, SpanLifecycleAndParenting) {
  Tracer tracer;
  Span root = tracer.StartTrace("op", /*host=*/1, /*start=*/100);
  TraceContext ctx = root.context();
  EXPECT_TRUE(ctx.traced());

  Span child = tracer.StartSpan("phase", /*host=*/2, ctx, /*start=*/150);
  child.End(250);
  root.End(300);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const SpanRecord& c = tracer.spans()[0];  // finished first
  const SpanRecord& r = tracer.spans()[1];
  EXPECT_EQ(c.trace_id, r.trace_id);
  EXPECT_EQ(c.parent_span_id, r.span_id);
  EXPECT_EQ(r.parent_span_id, 0u);
  EXPECT_EQ(c.host, 2u);
  EXPECT_EQ(c.duration(), 100);
  EXPECT_EQ(tracer.trace_count(), 1u);
  EXPECT_EQ(tracer.dropped_spans(), 0u);
}

TEST(TracerTest, UntracedParentYieldsInertSpan) {
  Tracer tracer;
  Span inert = tracer.StartSpan("phase", 1, TraceContext{}, 10);
  EXPECT_FALSE(inert.active());
  EXPECT_FALSE(inert.context().traced());
  inert.End(20);  // no-op
  EXPECT_TRUE(tracer.spans().empty());

  // Null-tracer helpers are inert too.
  Span none = MaybeStartTrace(nullptr, "op", 1, 10);  // simlint: allow(leaked-span)
  EXPECT_FALSE(none.active());
}

TEST(TracerTest, DroppedSpansAreCountedNotExported) {
  Tracer tracer;
  {
    Span leaked = tracer.StartTrace("op", 1, 10);  // simlint: allow(leaked-span)
    // BUG (deliberate): never ended; destructor abandons it.
  }
  EXPECT_EQ(tracer.spans().size(), 0u);
  EXPECT_EQ(tracer.dropped_spans(), 1u);
}

TEST(TracerTest, EndIsIdempotentAndMoveTransfersOwnership) {
  Tracer tracer;
  Span a = tracer.StartTrace("op", 1, 10);
  Span b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): asserting moved-from state
  b.End(20);
  b.End(99);  // no-op: first End wins
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].end, 20);
  EXPECT_EQ(tracer.dropped_spans(), 0u);
}

TEST(TracerTest, RecordSpanMaterializesRetroactivelyAndChains) {
  Tracer tracer;
  Span root = tracer.StartTrace("mmio.write", 2, 100);
  // The wire carried (ctx, sent_at=110); the receiver materializes the
  // flight span at dequeue time and parents its own work under it.
  TraceContext flight =
      tracer.RecordSpan("rpc.flight", /*host=*/0, root.context(), 110, 400);
  EXPECT_TRUE(flight.traced());
  Span serve = tracer.StartSpan("rpc.serve", 0, flight, 400);
  serve.End(450);
  root.End(500);

  auto spans = tracer.TraceSpans(tracer.spans()[0].trace_id);
  ASSERT_EQ(spans.size(), 3u);
  std::set<uint32_t> hosts;
  for (const auto& s : spans) hosts.insert(s.host);
  EXPECT_EQ(hosts.size(), 2u);
}

TEST(TracerTest, PhaseHistogramsBucketByName) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) {
    Span s = tracer.StartTrace("op", 1, i * 100);
    s.End(i * 100 + 50);
  }
  auto phases = tracer.PhaseHistograms();
  ASSERT_EQ(phases.count("op"), 1u);
  EXPECT_EQ(phases["op"].count(), 3u);
  EXPECT_EQ(phases["op"].Percentile(0.5), 50);
}

TEST(TracerTest, ChromeTraceJsonShape) {
  Tracer tracer;
  Span s = tracer.StartTrace("op", 3, 1000);
  s.End(3000);
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  // ts/dur are fractional microseconds: 1000 ns start, 2000 ns duration.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
}

// --- Flight recorder ---

TEST(FlightRecorderTest, RingOverwritesOldestPerHost) {
  FlightRecorder::Options opts;
  opts.ring_slots = 4;
  FlightRecorder fr(opts);
  for (int i = 0; i < 6; ++i) {
    fr.Note(/*now=*/i * 10, /*host=*/0, "test", "event %d", i);
  }
  fr.Note(100, /*host=*/2, "test", "other host");
  EXPECT_EQ(fr.recorded(), 7u);
  EXPECT_EQ(fr.overwritten(), 2u);

  auto events = fr.Snapshot();
  ASSERT_EQ(events.size(), 5u);  // 4 retained on host 0 + 1 on host 2
  // Oldest first; host 0's first two events were overwritten.
  EXPECT_EQ(events.front().at, 20);
  EXPECT_STREQ(events.front().msg, "event 2");
  EXPECT_EQ(events.back().host, 2u);
  EXPECT_GE(fr.host_count(), 3u);  // rings grow to cover host ids seen
}

TEST(FlightRecorderTest, LongMessagesTruncateSafely) {
  FlightRecorder fr;
  std::string big(500, 'x');
  fr.Note(1, 0, "categorytoolongtofit", "%s", big.c_str());
  auto events = fr.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(std::strlen(events[0].msg), sizeof(events[0].msg));
  EXPECT_LT(std::strlen(events[0].category), sizeof(events[0].category));
  EXPECT_EQ(events[0].msg[0], 'x');
}

TEST(ObservabilityTest, DumpFlightRetainsTextAndCounts) {
  Observability obs;
  obs.flight().Note(10, 1, "mmio", "write reg=0x8 val=1");
  obs.DumpFlight("unit test");
  EXPECT_EQ(obs.dumps(), 1u);
  EXPECT_NE(obs.last_dump().find("unit test"), std::string::npos);
  EXPECT_NE(obs.last_dump().find("write reg=0x8 val=1"), std::string::npos);
}

TEST(ObservabilityTest, TracingOffMeansNullTracer) {
  Observability::Options opts;
  opts.tracing = false;
  Observability obs(opts);
  EXPECT_EQ(obs.tracer(), nullptr);
  // Hook sites degrade to inert spans.
  Span s = MaybeStartTrace(obs.tracer(), "op", 0, 0);  // simlint: allow(leaked-span)
  EXPECT_FALSE(s.active());
}

// --- End to end: one forwarded MMIO = one cross-host trace ---

TEST(ObsEndToEndTest, ForwardedMmioProducesCrossHostTrace) {
  sim::EventLoop loop;
  Observability obs;
  RackConfig rc;
  rc.pod.num_hosts = 3;
  rc.pod.num_mhds = 1;
  rc.pod.mhd_capacity = 16 * kMiB;
  rc.pod.dram_per_host = 4 * kMiB;
  rc.obs = &obs;
  Rack rack(loop, rc);

  // A register device homed on host 0, driven from host 2.
  class Regs : public pcie::PcieDevice {
   public:
    Regs(PcieDeviceId id, sim::EventLoop& loop)
        : PcieDevice(id, "regs", loop, cxl::LinkSpec{}, pcie::PcieTiming{}) {}

   protected:
    void OnMmioWrite(uint64_t, uint64_t) override {}
    uint64_t OnMmioRead(uint64_t) override { return 0; }
  };
  Regs dev(PcieDeviceId(50), loop);
  dev.AttachTo(&rack.pod().host(0));
  rack.orchestrator().RegisterDevice(HostId(0), &dev, core::DeviceType::kAccel);
  rack.Start();

  auto path = rack.orchestrator().MakeMmioPath(HostId(2), PcieDeviceId(50));
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE((*path)->is_remote());

  auto write_once = [&path]() -> Task<> {
    CXLPOOL_CHECK_OK(co_await (*path)->Write(0x8, 42));
  };
  RunBlocking(loop, write_once());

  Tracer& tracer = *obs.tracer();
  EXPECT_EQ(tracer.trace_count(), 1u) << "one op, one trace";
  auto spans = tracer.TraceSpans(1);
  EXPECT_GE(spans.size(), 4u) << "expected enqueue/flight/serve/device phases";
  std::set<uint32_t> hosts;
  std::set<std::string> names;
  for (const auto& s : spans) {
    hosts.insert(s.host);
    names.insert(s.name);
  }
  EXPECT_GE(hosts.size(), 2u) << "trace must span client and home hosts";
  EXPECT_TRUE(hosts.count(2) == 1 && hosts.count(0) == 1);
  EXPECT_EQ(names.count("mmio.write"), 1u);
  EXPECT_EQ(names.count("rpc.flight"), 1u);
  EXPECT_EQ(names.count("mmio.device_bar"), 1u);
  EXPECT_EQ(tracer.dropped_spans(), 0u) << "every span must be End()ed";

  rack.Shutdown();
  loop.RunFor(100 * kMicrosecond);
}

// Same-seed purity: the trace fields ride the wire whether or not tracing
// is on, so the op completes at the identical sim time either way.
TEST(ObsEndToEndTest, TracingDoesNotChangeSimTiming) {
  auto run = [](Observability* obs) -> Nanos {
    sim::EventLoop loop;
    RackConfig rc;
    rc.pod.num_hosts = 2;
    rc.pod.num_mhds = 1;
    rc.pod.mhd_capacity = 8 * kMiB;
    rc.pod.dram_per_host = 2 * kMiB;
    rc.obs = obs;
    Rack rack(loop, rc);
    class Regs : public pcie::PcieDevice {
     public:
      Regs(PcieDeviceId id, sim::EventLoop& loop)
          : PcieDevice(id, "regs", loop, cxl::LinkSpec{}, pcie::PcieTiming{}) {}

     protected:
      void OnMmioWrite(uint64_t, uint64_t) override {}
      uint64_t OnMmioRead(uint64_t) override { return 0; }
    };
    Regs dev(PcieDeviceId(50), loop);
    dev.AttachTo(&rack.pod().host(0));
    rack.orchestrator().RegisterDevice(HostId(0), &dev,
                                       core::DeviceType::kAccel);
    rack.Start();
    auto path = rack.orchestrator().MakeMmioPath(HostId(1), PcieDeviceId(50));
    CXLPOOL_CHECK(path.ok());
    auto t = [&path]() -> Task<> {
      for (int i = 0; i < 10; ++i) {
        CXLPOOL_CHECK_OK(co_await (*path)->Write(0x8, 1));
        (void)co_await (*path)->Read(0x8);
      }
    };
    RunBlocking(loop, t());
    Nanos done = loop.now();
    rack.Shutdown();
    loop.RunFor(100 * kMicrosecond);
    return done;
  };
  Observability obs;
  Nanos traced = run(&obs);
  Nanos untraced = run(nullptr);
  EXPECT_EQ(traced, untraced);
  EXPECT_GT(obs.tracer()->spans().size(), 0u);
}

// --- One observability path: components reach the pod's bundle through
// their host, with no tracer or bundle handed to them ---

TEST(ObsEndToEndTest, HostReachesThePodBundle) {
  sim::EventLoop loop;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 8 * kMiB;
  pc.dram_per_host = 2 * kMiB;
  {
    // No bundle: no tracer, and a flight note goes nowhere.
    cxl::CxlPod pod(loop, pc);
    EXPECT_EQ(pod.obs(), nullptr);
    EXPECT_EQ(pod.host(1).tracer(), nullptr);
    pod.host(1).FlightNote("test", "dropped %d", 1);
  }
  Observability obs;
  pc.obs = &obs;
  cxl::CxlPod pod(loop, pc);
  EXPECT_EQ(&pod.metrics(), &obs.metrics());
  EXPECT_EQ(pod.host(1).tracer(), obs.tracer());
  loop.RunFor(7);
  pod.host(1).FlightNote("test", "kept %d", 2);
  std::vector<FlightRecorder::Event> notes = obs.flight().Snapshot();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].at, 7);
  EXPECT_EQ(notes[0].host, 1u);
  EXPECT_STREQ(notes[0].category, "test");
  EXPECT_STREQ(notes[0].msg, "kept 2");
}

// A default-config accelerator queue pair on host 1 traces with no wiring:
// its qp.submit_wait root carries the forwarded doorbell across to the
// device's home agent on host 0, and every span lands in the one trace.
TEST(ObsEndToEndTest, QueuePairTracesThroughItsHostWithNoWiring) {
  sim::EventLoop loop;
  Observability obs;
  RackConfig rc;
  rc.pod.num_hosts = 2;
  rc.pod.num_mhds = 1;
  rc.pod.mhd_capacity = 16 * kMiB;
  rc.pod.dram_per_host = 4 * kMiB;
  rc.accels = 1;
  rc.accel_home = 0;
  rc.obs = &obs;
  Rack rack(loop, rc);
  rack.Start();

  auto job = [](Rack& rack, sim::EventLoop& loop) -> Task<> {
    auto lease = rack.AcquireDevice(HostId(1), core::DeviceType::kAccel);
    CXLPOOL_CHECK_OK(lease.status());
    CXLPOOL_CHECK(lease->mmio->is_remote());
    auto accel = co_await core::VirtualAccel::Create(rack.pod().host(1),
                                                     std::move(lease->mmio), {});
    CXLPOOL_CHECK_OK(accel.status());
    auto seg = rack.pod().pool().Allocate(16 * kKiB);
    CXLPOOL_CHECK_OK(seg.status());
    std::vector<std::byte> input(256, std::byte{0x3c});
    CXLPOOL_CHECK_OK(co_await rack.pod().host(1).StoreNt(seg->base, input));
    auto st = co_await (*accel)->RunJob(seg->base, 256, seg->base + 8 * kKiB,
                                        loop.now() + kSecond);
    CXLPOOL_CHECK_OK(st.status());
    CXLPOOL_CHECK(*st == 0);
  };
  RunBlocking(loop, job(rack, loop));

  const Tracer& tracer = *obs.tracer();
  std::vector<uint64_t> qp_traces;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.parent_span_id == 0 && std::string(s.name) == "qp.submit_wait") {
      EXPECT_EQ(s.host, 1u);
      qp_traces.push_back(s.trace_id);
    }
  }
  ASSERT_EQ(qp_traces.size(), 1u) << "one job, one qp.submit_wait trace";
  std::set<std::pair<std::string, uint32_t>> spans;  // (name, host)
  for (const SpanRecord& s : tracer.TraceSpans(qp_traces[0])) {
    spans.emplace(s.name, s.host);
  }
  EXPECT_EQ(spans.count({"mmio.write", 1}), 1u);
  EXPECT_EQ(spans.count({"rpc.serve", 0}), 1u);
  EXPECT_EQ(spans.count({"mmio.device_bar", 0}), 1u);
  EXPECT_EQ(tracer.dropped_spans(), 0u);

  rack.Shutdown();
  loop.RunFor(100 * kMicrosecond);
}

// --- Acceptance: a coherence violation dumps the flight recorder, and the
// offending operation is among the last-N events ---

TEST(ObsEndToEndTest, CoherenceViolationTriggersFlightDumpWithOffendingOp) {
  sim::EventLoop loop;
  Observability obs;
  cxl::CxlPodConfig pc;
  pc.num_hosts = 2;
  pc.num_mhds = 1;
  pc.mhd_capacity = 8 * kMiB;
  pc.dram_per_host = 2 * kMiB;
  pc.obs = &obs;
  cxl::CxlPod pod(loop, pc);

  // The checker reports into the bundle of the pod it is attached to.
  analysis::CoherenceChecker checker;
  checker.AttachTo(pod);

  auto seg = pod.pool().Allocate(4 * kKiB);
  ASSERT_TRUE(seg.ok());
  uint64_t addr = seg->base;

  auto t = [&pod, addr]() -> Task<> {
    std::vector<std::byte> data(64, std::byte{0x9f});
    std::vector<std::byte> out(64);
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));      // caches v0
    CXLPOOL_CHECK_OK(co_await pod.host(0).StoreNt(addr, data));  // publishes v1
    // BUG (deliberate): Load, not ReadFresh — stale read fires the checker.
    CXLPOOL_CHECK_OK(co_await pod.host(1).Load(addr, out));
  };
  RunBlocking(loop, t());

  EXPECT_EQ(checker.violation_count(), 1u);
  EXPECT_EQ(obs.dumps(), 1u) << "the violation must dump the flight recorder";
  const std::string& dump = obs.last_dump();
  EXPECT_NE(dump.find("coherence violation: stale-read"), std::string::npos);
  // The offending operation (the stale line and both hosts) is in the dump.
  char line_hex[32];
  std::snprintf(line_hex, sizeof(line_hex), "line=0x%llx",
                static_cast<unsigned long long>(addr));
  EXPECT_NE(dump.find(line_hex), std::string::npos) << dump;
  EXPECT_NE(dump.find("stale-read"), std::string::npos);

  // The checker's final counts are copied into the registry on request.
  checker.ExportCounts(obs.metrics());
  EXPECT_EQ(CounterValue(obs.metrics(), "coherence.violations", {{"type", "stale-read"}}),
            1u);
  std::string json = obs.metrics().ToJson();
  EXPECT_NE(json.find("\"name\":\"coherence.violations\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"stale-read\""), std::string::npos);
}

}  // namespace
}  // namespace cxlpool::obs
