// E8 / §4.1 ablation: cost of operating a REMOTE device's registers
// through the shared-memory forwarding channel vs direct local MMIO —
// the price of pooling's control path (the data path is untouched: DMA
// goes straight to CXL memory either way).
//
// Runs with distributed tracing on: every forwarded operation becomes one
// trace whose spans cover the client (mmio.write root, rpc.enqueue) and the
// home agent (rpc.flight, rpc.serve, mmio.device_bar, rpc.reply), so the
// forwarded-vs-local gap decomposes into named phases instead of one
// opaque number. `--trace <path>` exports Chrome/Perfetto trace_event
// JSON; `--json <path>` writes the BENCH metrics snapshot.
// The throughput section saturates one forwarded path with N concurrent
// producers and compares a serialized client (max_inflight = 1, the old
// stop-and-wait behavior) against the pipelined one (max_inflight = 8):
// doorbells/sec with 8 producers must gain >= 3x from pipelining, since
// overlapped requests hide the channel round trip behind the home agent's
// service time. `--producers N` restricts the sweep to one producer count
// (CI runs 1 and 8 separately).
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/obs/obs.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

using namespace cxlpool;
using namespace cxlpool::core;
using sim::RunBlocking;
using sim::Task;

namespace {

class RegisterDevice : public pcie::PcieDevice {
 public:
  RegisterDevice(PcieDeviceId id, sim::EventLoop& loop)
      : PcieDevice(id, "regs", loop, cxl::LinkSpec{}, pcie::PcieTiming{}) {}

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override { regs_[reg % 16] = value; }
  uint64_t OnMmioRead(uint64_t reg) override { return regs_[reg % 16]; }

 private:
  uint64_t regs_[16] = {};
};

Task<> MeasureWrites(MmioPath& path, sim::EventLoop& loop, int count,
                     sim::Histogram& hist) {
  for (int i = 0; i < count; ++i) {
    Nanos start = loop.now();
    CXLPOOL_CHECK_OK(co_await path.Write(0x8, static_cast<uint64_t>(i)));
    hist.Add(loop.now() - start);
  }
}

Task<> MeasureReads(MmioPath& path, sim::EventLoop& loop, int count,
                    sim::Histogram& hist) {
  for (int i = 0; i < count; ++i) {
    Nanos start = loop.now();
    auto v = co_await path.Read(0x8);
    CXLPOOL_CHECK(v.ok());
    hist.Add(loop.now() - start);
  }
}

struct Join {
  Join(sim::EventLoop& loop, int total) : done(loop), total(total) {}
  sim::Event done;
  int finished = 0;
  int total;
};

Task<> ProducerWrites(MmioPath& path, int count, Join& join) {
  for (int i = 0; i < count; ++i) {
    CXLPOOL_CHECK_OK(co_await path.Write(0x8, static_cast<uint64_t>(i)));
  }
  if (++join.finished == join.total) {
    join.done.Set();
  }
}

Task<> Saturate(sim::EventLoop& loop, MmioPath& path, int producers,
                int per_producer) {
  Join join(loop, producers);
  for (int p = 0; p < producers; ++p) {
    sim::Spawn(ProducerWrites(path, per_producer, join));
  }
  while (join.finished < join.total) {
    co_await join.done.Wait();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  int producers_flag = 0;  // 0 = sweep the default {1, 8}
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--producers") == 0 && i + 1 < argc) {
      producers_flag = std::atoi(argv[++i]);
    }
  }
  std::printf("=== MMIO path ablation: local vs forwarded over CXL channel ===\n\n");

  const int64_t wall_start = obs::WallNanos();
  sim::EventLoop loop;
  obs::Observability obs;
  RackConfig rc;
  rc.pod.num_hosts = 3;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 16 * kMiB;
  rc.pod.dram_per_host = 4 * kMiB;
  rc.obs = &obs;
  Rack rack(loop, rc);

  RegisterDevice dev(PcieDeviceId(99), loop);
  dev.AttachTo(&rack.pod().host(0));
  rack.orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack.Start();

  auto local = rack.orchestrator().MakeMmioPath(HostId(0), PcieDeviceId(99));
  auto remote = rack.orchestrator().MakeMmioPath(HostId(2), PcieDeviceId(99));
  CXLPOOL_CHECK_OK(local.status());
  CXLPOOL_CHECK_OK(remote.status());

  obs::Tracer& tracer = *obs.tracer();

  // One forwarded write under the microscope first: it must produce a
  // single trace whose spans name every phase and land on both the client
  // host (2) and the home-agent host (0).
  {
    size_t spans_before = tracer.spans().size();
    uint64_t traces_before = tracer.trace_count();
    sim::Histogram scratch;
    RunBlocking(loop, MeasureWrites(**remote, loop, 1, scratch));
    CXLPOOL_CHECK(tracer.trace_count() == traces_before + 1);
    std::set<uint32_t> hosts;
    std::printf("one forwarded doorbell write, span by span:\n");
    for (size_t i = spans_before; i < tracer.spans().size(); ++i) {
      const obs::SpanRecord& s = tracer.spans()[i];
      hosts.insert(s.host);
      std::printf("  host %u  %-16s %6lld ns  [%lld, %lld]\n", s.host, s.name,
                  static_cast<long long>(s.duration()),
                  static_cast<long long>(s.start),
                  static_cast<long long>(s.end));
    }
    CXLPOOL_CHECK(tracer.spans().size() - spans_before >= 4);
    CXLPOOL_CHECK(hosts.size() >= 2);
    std::printf("\n");
  }

  sim::Histogram local_w, local_r, remote_w, remote_r;
  RunBlocking(loop, MeasureWrites(**local, loop, 2000, local_w));
  RunBlocking(loop, MeasureReads(**local, loop, 2000, local_r));
  RunBlocking(loop, MeasureWrites(**remote, loop, 2000, remote_w));
  RunBlocking(loop, MeasureReads(**remote, loop, 2000, remote_r));

  auto row = [](const char* name, sim::Histogram& h) {
    std::printf("%-28s p50 %6lld ns   p99 %6lld ns\n", name,
                static_cast<long long>(h.Percentile(0.5)),
                static_cast<long long>(h.Percentile(0.99)));
  };
  row("doorbell write, local", local_w);
  row("doorbell write, forwarded", remote_w);
  row("register read, local", local_r);
  row("register read, forwarded", remote_r);

  // Where the forwarded nanoseconds go, by phase (client-side spans show
  // the op end to end; agent-side spans isolate channel and device time).
  std::printf("\nforwarded-path phase breakdown (per-span, ns):\n");
  std::printf("  %-16s %8s %8s %8s %8s\n", "phase", "n", "p50", "p99", "max");
  for (const auto& [name, hist] : tracer.PhaseHistograms()) {
    std::printf("  %-16s %8llu %8lld %8lld %8lld\n", name.c_str(),
                static_cast<unsigned long long>(hist.count()),
                static_cast<long long>(hist.Percentile(0.5)),
                static_cast<long long>(hist.Percentile(0.99)),
                static_cast<long long>(hist.max()));
  }

  double write_x = static_cast<double>(remote_w.Percentile(0.5)) /
                   static_cast<double>(local_w.Percentile(0.5));
  std::printf("\nforwarded doorbell costs %.1fx a local one (one sub-us channel\n"
              "round trip, paper Fig. 4, on top of the device MMIO). Batching\n"
              "doorbells (rx_doorbell_batch) amortizes this on the datapath.\n",
              write_x);

  // Freeze the unsaturated phase decomposition before the throughput storm
  // below floods the tracer with queue-heavy spans.
  auto phase_hists = tracer.PhaseHistograms();

  // --- Saturated throughput: serialized vs pipelined client ---
  std::printf("\n=== saturated forwarded-doorbell throughput ===\n");
  std::printf("  %-10s %-9s %10s %14s\n", "client", "producers", "ops",
              "doorbells/sec");
  struct ModeSpec {
    const char* name;
    uint32_t max_inflight;
  };
  const ModeSpec kModes[] = {{"serialized", 1}, {"pipelined", 8}};
  std::vector<int> producer_counts =
      producers_flag > 0 ? std::vector<int>{producers_flag}
                         : std::vector<int>{1, 8};
  constexpr int kTotalOps = 4000;
  obs::Registry& reg = obs.metrics();
  double rate_at_8[2] = {0, 0};  // [mode] — for the pipelining-gain check
  for (size_t m = 0; m < 2; ++m) {
    for (int producers : producer_counts) {
      msg::RpcClient::Options copt;
      copt.max_inflight = kModes[m].max_inflight;
      auto path =
          rack.orchestrator().MakeMmioPath(HostId(2), PcieDeviceId(99), copt);
      CXLPOOL_CHECK_OK(path.status());
      int per_producer = kTotalOps / producers;
      Nanos t0 = loop.now();
      RunBlocking(loop, Saturate(loop, **path, producers, per_producer));
      Nanos dt = loop.now() - t0;
      CXLPOOL_CHECK(dt > 0);
      double per_sec =
          static_cast<double>(per_producer * producers) * 1e9 /
          static_cast<double>(dt);
      std::printf("  %-10s %9d %10d %14.0f\n", kModes[m].name, producers,
                  per_producer * producers, per_sec);
      reg.GetGauge("mmio.doorbells_per_sec",
                   {{"mode", kModes[m].name},
                    {"producers", std::to_string(producers)}})
          ->Set(static_cast<int64_t>(per_sec));
      if (producers == 8) {
        rate_at_8[m] = per_sec;
      }
    }
  }
  if (rate_at_8[0] > 0 && rate_at_8[1] > 0) {
    double gain = rate_at_8[1] / rate_at_8[0];
    std::printf("\npipelining gain at 8 producers: %.2fx (required >= 3x)\n",
                gain);
    CXLPOOL_CHECK(gain >= 3.0);
  }

  if (!trace_path.empty()) {
    CXLPOOL_CHECK_OK(tracer.WriteChromeTrace(trace_path));
    std::printf("chrome trace:      %s (%zu spans, %llu traces) — open in "
                "chrome://tracing or ui.perfetto.dev\n",
                trace_path.c_str(), tracer.spans().size(),
                static_cast<unsigned long long>(tracer.trace_count()));
  }
  if (!json_path.empty()) {
    reg.GetHistogram("mmio.latency_ns", {{"path", "local"}, {"op", "write"}})
        ->MergeFrom(local_w);
    reg.GetHistogram("mmio.latency_ns", {{"path", "local"}, {"op", "read"}})
        ->MergeFrom(local_r);
    reg.GetHistogram("mmio.latency_ns", {{"path", "forwarded"}, {"op", "write"}})
        ->MergeFrom(remote_w);
    reg.GetHistogram("mmio.latency_ns", {{"path", "forwarded"}, {"op", "read"}})
        ->MergeFrom(remote_r);
    for (const auto& [name, hist] : phase_hists) {
      reg.GetHistogram("mmio.phase_ns", {{"phase", name}})->MergeFrom(hist);
    }
    CXLPOOL_CHECK_OK(obs::WriteBenchJson(
        json_path, "mmio_forwarding",
        {.sim_ns = loop.now(), .events = loop.executed(),
         .wall_ns = obs::WallNanos() - wall_start},
        reg));
    std::printf("metrics snapshot:  %s (%zu series)\n", json_path.c_str(),
                reg.series_count());
  }

  rack.Shutdown();
  loop.RunFor(500 * kMicrosecond);
  CXLPOOL_CHECK(rack.pod().TotalLostDirtyLines() == 0);
  return 0;
}
