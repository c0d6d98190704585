// perfbench_sim: runs the benchmark's workloads in one process on one OS
// thread and prints one JSON object per workload (run.py turns it into the
// metric report).
//
//   perfbench_sim --workload kv_zipf[,udp_echo,...] --seed N --seconds S
//                 --trace 0|1
//   perfbench_sim --self-test
//
// --trace 0 (the end-to-end run):
//   1. three short determinism probes (set-up + one sub-window each) with
//      seeds N, N and N+1: the first two must agree exactly, the third
//      must not; then more timed set-ups (at least seven in all, and at
//      least 2 s of them);
//   2. the measured run: set-up, then one continuous phase of W equal
//      sub-windows, each timed on the host clock (W is fixed by S, so sim
//      results depend only on the seed and S);
//   3. the correctness checks, then the max_rate_at_slo bisection on the
//      same rack.
// --trace 1 (the per-layer run): the measured run untraced, then again with
//   obs::Observability and a counting CoherenceObserver attached, each with
//   W/2 sub-windows. Both must agree exactly on every simulated number;
//   then the host-cost probes.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/sim/harness.h"

namespace perfbench {
namespace {

using namespace cxlpool;

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<Scenario> (*make)(uint64_t seed, LayerTap* tap);
  // Sub-windows per second of --seconds: the inverse of one sub-window's
  // host time on the 4-core x86 server the constants were tuned on, so that
  // the measured phase takes about --seconds there.
  double windows_per_second;
};

const WorkloadSpec kWorkloads[] = {
    {"kv_zipf", MakeKvZipf, 2.2},
    {"udp_echo", MakeUdpEcho, 3.3},
    {"mmio_fwd", MakeMmioFwd, 4.0},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// --- JSON output ---

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::string List(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? "," : "") + Num(static_cast<double>(values[i]));
  }
  return out + "]";
}

std::string ChecksJson(const Checks& checks) {
  std::string out = "[";
  for (size_t i = 0; i < checks.size(); ++i) {
    out += std::string(i ? "," : "") + "{\"name\":" + Quote(checks[i].name) +
           ",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":" + Quote(checks[i].detail) + "}";
  }
  return out + "]";
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out += (first ? "" : ",") + Quote(name) + ":" + Num(value);
    first = false;
  }
  return out + "}";
}

std::string SimJson(const OpWindow& ops) {
  return "{\"attempted\":" + Num(static_cast<double>(ops.attempted)) +
         ",\"served\":" + Num(static_cast<double>(ops.served)) +
         ",\"failed\":" + Num(static_cast<double>(ops.failed)) +
         ",\"late\":" + Num(static_cast<double>(ops.late())) +
         ",\"p50_ns\":" + Num(ops.Percentile(0.5)) +
         ",\"p99_ns\":" + Num(ops.Percentile(0.99)) +
         ",\"goodput_ops\":" + Num(ops.GoodputOps()) +
         ",\"sent\":" + Num(static_cast<double>(ops.sent)) +
         ",\"offered\":" + Num(ops.offered) + "}";
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- measurement ---

// Host time rescaled to the reference kernel's nominal speed: total
// elapsed x kReferenceSeconds / mean kernel time. The ratio of sums is
// steadier than any per-sample ratio.
double Rescaled(const std::vector<double>& elapsed, const std::vector<double>& kernel) {
  return std::accumulate(elapsed.begin(), elapsed.end(), 0.0) * kReferenceSeconds *
         static_cast<double>(kernel.size()) /
         std::accumulate(kernel.begin(), kernel.end(), 0.0);
}

struct Measured {
  std::vector<double> wall_s;       // per sub-window, as elapsed
  std::vector<double> kernel_s;     // reference kernel after each sub-window
  std::vector<uint64_t> events;     // per sub-window
  OpWindow ops;                     // all sub-windows
  double total_host() const { return Rescaled(wall_s, kernel_s); }
  uint64_t total_events() const {
    return std::accumulate(events.begin(), events.end(), uint64_t{0});
  }
  std::string Digest() const {
    return ops.Digest() + "|events=" + std::to_string(total_events());
  }
};

// Set-ups' elapsed host times, each followed by a reference kernel run.
struct Setups {
  std::vector<double> elapsed;
  std::vector<double> kernel;
  void Time(Scenario& sc) {
    double t0 = WallNow();
    sc.Setup();
    elapsed.push_back(WallNow() - t0);
    kernel.push_back(ReferenceKernelSeconds());
  }
  // The mean set-up, rescaled like the sub-windows.
  double host_s() const {
    return Rescaled(elapsed, kernel) / static_cast<double>(elapsed.size());
  }
};

Measured RunWindows(Scenario& sc, int windows, LayerTap* tap) {
  Measured m;
  sim::EventLoop& loop = sc.loop();
  const Nanos start = loop.now();
  sc.StartMeasured(windows);
  for (int i = 0; i < windows; ++i) {
    if (tap != nullptr) {
      tap->BeginWindow(sc.rack());
    }
    uint64_t e0 = loop.executed();
    double t0 = WallNow();
    loop.RunUntil(start + (i + 1) * sc.window());
    m.wall_s.push_back(WallNow() - t0);
    m.events.push_back(loop.executed() - e0);
    m.kernel_s.push_back(ReferenceKernelSeconds());
    if (tap != nullptr) {
      tap->EndWindow(sc.rack());
    }
  }
  m.ops = sc.FinishMeasured();
  return m;
}

struct BisectResult {
  double rate = 0;
  int rungs = 0;
  uint64_t min_samples = UINT64_MAX;
  bool consistent = true;  // every rung's counts add up
};

// max_rate_at_slo: bisects the workload's knob over its fixed range. The
// low end is assumed healthy and tested only if nothing above it is.
BisectResult Bisect(Scenario& sc, const SloSearch& s) {
  BisectResult r;
  auto healthy = [&](double x, double* rate) {
    OpWindow w = sc.RunRung(x);
    ++r.rungs;
    r.min_samples = std::min(r.min_samples, w.WithFailures().count());
    r.consistent = r.consistent && w.Consistent();
    double p99 = w.Percentile(0.99);
    *rate = s.open_loop ? x : w.GoodputOps();
    return p99 >= 0 && p99 <= static_cast<double>(s.p99_slo) &&
           static_cast<double>(w.served) >= 0.9 * static_cast<double>(w.sent);
  };
  double lo = s.lo;
  double hi = s.hi;
  double rate = 0;
  while (hi - lo > s.resolution * 1.5) {
    double steps = std::max(1.0, std::floor((hi - lo) / s.resolution / 2));
    double mid = lo + steps * s.resolution;
    if (healthy(mid, &rate)) {
      lo = mid;
      r.rate = rate;
    } else {
      hi = mid;
    }
  }
  if (r.rate == 0 && healthy(s.lo, &rate)) {
    r.rate = rate;
  }
  return r;
}

// Set-ups timed before the measured run's own, the three probes' included:
// at least kMinSetups, and until they took kSetupSeconds of elapsed time
// (short set-ups are the noisiest, so a workload with short ones times
// more), but no more than kMaxSetups.
constexpr size_t kMinSetups = 7;
constexpr double kSetupSeconds = 2.0;
constexpr size_t kMaxSetups = 40;

void CheckAccounting(Checks& checks, const char* name, const OpWindow& ops) {
  AddCheck(checks, name, ops.Consistent(),
           std::to_string(ops.attempted) + " attempted: " + std::to_string(ops.served) +
               " served (" + std::to_string(ops.latency.count()) + " samples), " +
               std::to_string(ops.failed) + " failed, the rest late");
}

int WindowsFor(const WorkloadSpec& spec, double seconds) {
  return std::max(2, static_cast<int>(std::lround(seconds * spec.windows_per_second)));
}

std::string EndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Checks checks;
  Setups setups;
  const int windows = WindowsFor(spec, seconds);

  const uint64_t probe_seeds[3] = {seed, seed, seed + 1};
  std::string digest[3];
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<Scenario> sc = spec.make(probe_seeds[i], nullptr);
    setups.Time(*sc);
    digest[i] = RunWindows(*sc, 1, nullptr).Digest();
    sc->Teardown(checks);
  }
  AddCheck(checks, "determinism.same_seed", digest[0] == digest[1],
           digest[0] + " vs " + digest[1]);
  AddCheck(checks, "determinism.seed_reaches_inputs", digest[0] != digest[2],
           "seed " + std::to_string(seed) + ": " + digest[0] + "; seed " +
               std::to_string(seed + 1) + ": " + digest[2]);
  while (setups.elapsed.size() < kMaxSetups &&
         (setups.elapsed.size() < kMinSetups ||
          std::accumulate(setups.elapsed.begin(), setups.elapsed.end(), 0.0) <
              kSetupSeconds)) {
    std::unique_ptr<Scenario> sc = spec.make(seed, nullptr);
    setups.Time(*sc);
    sc->Teardown(checks);
  }

  std::unique_ptr<Scenario> sc = spec.make(seed, nullptr);
  setups.Time(*sc);
  Measured m = RunWindows(*sc, windows, nullptr);
  CheckAccounting(checks, "ops.accounting", m.ops);
  sc->CheckOutputs(checks, /*full=*/true);
  BisectResult b = Bisect(*sc, sc->search());
  AddCheck(checks, "bisect.samples_per_rung", b.min_samples >= 1000,
           std::to_string(b.rungs) + " rungs, fewest samples " +
               std::to_string(b.min_samples));
  AddCheck(checks, "bisect.accounting", b.consistent,
           "every rung: one sample per served op, served + failed <= attempted");
  sc->Teardown(checks);

  return "{\"workload\":" + Quote(spec.name) + ",\"trace\":0,\"seed\":" +
         std::to_string(seed) + ",\"windows\":" + std::to_string(windows) +
         ",\"setup_s\":" + Num(setups.host_s()) +
         ",\"setup_elapsed_s\":" + List(setups.elapsed) +
         ",\"setup_kernel_s\":" + List(setups.kernel) +
         ",\"window_wall_s\":" + List(m.wall_s) +
         ",\"window_kernel_s\":" + List(m.kernel_s) +
         ",\"window_events\":" + List(m.events) +
         ",\"host_s_per_window\":" + Num(m.total_host() / windows) +
         ",\"events_per_host_s\":" +
         Num(static_cast<double>(m.total_events()) / m.total_host()) +
         ",\"sim\":" + SimJson(m.ops) +
         ",\"max_rate_at_slo\":" + Num(b.rate) +
         ",\"peak_rss_mb\":" + Num(PeakRssMb()) + ",\"checks\":" + ChecksJson(checks) +
         "}";
}

std::string PerLayer(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Checks checks;
  // The untraced and the traced pass share the --seconds budget.
  const int windows = WindowsFor(spec, seconds / 2);

  std::unique_ptr<Scenario> plain = spec.make(seed, nullptr);
  plain->Setup();
  Measured untraced = RunWindows(*plain, windows, nullptr);
  plain->CheckOutputs(checks, /*full=*/false);
  plain->Teardown(checks);
  plain.reset();

  obs::Observability obs;
  LayerTap tap(&obs);
  std::unique_ptr<Scenario> sc = spec.make(seed, &tap);
  sc->Setup();
  Measured traced = RunWindows(*sc, windows, &tap);
  CheckAccounting(checks, "ops.accounting", traced.ops);
  Metrics layers;
  tap.Emit(layers, traced.ops);
  sc->EmitLayers(layers, traced.ops);
  sc->CheckOutputs(checks, /*full=*/false);
  sc->Teardown(checks);
  AddCheck(checks, "trace.purity", traced.Digest() == untraced.Digest(),
           "untraced " + untraced.Digest() + " vs traced " + traced.Digest());

  const double wall = untraced.total_host();
  layers["sim.host_ns_per_event"] =
      wall * 1e9 / static_cast<double>(std::max<uint64_t>(1, untraced.total_events()));
  layers["obs.trace_overhead_ratio"] = traced.total_host() / wall;

  // Each layer's isolated call cost beside its call count in this run: the
  // share of the untraced window time those calls would take. Shares
  // overlap (a line op also resumes the event loop).
  Metrics cost = MeasureHostCosts();
  layers.insert(cost.begin(), cost.end());
  auto share = [&](double calls, const char* cost_name) {
    return calls * cost[cost_name] / (wall * 1e9);
  };
  layers["host_share.sim"] = share(layers["sim.events"], "host_ns.sim_event");
  layers["host_share.mem"] = share(layers["mem.line_ops"], "host_ns.mem_line");
  layers["host_share.msg"] = share(layers["agent.forwarded_ops"], "host_ns.msg_send_recv");
  layers["host_share.kv"] = share(layers["kv.requests"], "host_ns.kv_get");

  return "{\"workload\":" + Quote(spec.name) + ",\"trace\":1,\"seed\":" +
         std::to_string(seed) + ",\"windows\":" + std::to_string(windows) +
         ",\"sim\":" + SimJson(untraced.ops) + ",\"layers\":" + MetricsJson(layers) +
         ",\"checks\":" + ChecksJson(checks) + "}";
}

// The failure-accounting and sample-guard self-test.
std::string SelfTest() {
  Checks checks;

  // Far above the knee, failures appear and the tail sits at the deadline.
  {
    std::unique_ptr<Scenario> sc = MakeKvZipf(1, nullptr);
    sc->Setup();
    OpWindow w = sc->RunRung(1.2e6);
    double p99 = w.Percentile(0.99);
    double dl = static_cast<double>(w.deadline);
    AddCheck(checks, "overload.fail_ratio_positive", w.failed > 0,
             std::to_string(w.failed) + " of " + std::to_string(w.attempted) +
                 " arrivals failed");
    AddCheck(checks, "overload.p99_at_deadline", std::fabs(p99 - dl) <= 0.02 * dl,
             "p99 " + Num(p99) + " ns, deadline " + Num(dl) + " ns");
    sc->Teardown(checks);
  }

  // Too few samples beyond a percentile: refused; one more sample: reported.
  {
    OpWindow w;
    for (int i = 0; i < 999; ++i) {
      w.latency.Add(1000 + i);
    }
    w.attempted = w.served = 999;
    AddCheck(checks, "guard.refuses_p99_below_1000_samples", w.Percentile(0.99) < 0,
             "999 samples");
    w.latency.Add(5000);
    w.attempted = w.served = 1000;
    AddCheck(checks, "guard.reports_p99_at_1000_samples", w.Percentile(0.99) > 0,
             "1000 samples");
    // One served, 10 failed and 8 late ops: 19 samples.
    OpWindow few;
    few.latency.Add(700);
    few.attempted = 19;
    few.served = 1;
    few.failed = 10;
    few.deadline = 9000;
    AddCheck(checks, "guard.refuses_p50_below_20_samples",
             few.Consistent() && few.WithFailures().count() == 19 &&
                 few.Percentile(0.5) < 0,
             "19 samples");
    few.attempted = 20;
    AddCheck(checks, "guard.charges_late_ops",
             std::fabs(few.Percentile(0.5) - 9000) <= 0.02 * 9000,
             "20 samples, 19 of them failed or late: p50 " + Num(few.Percentile(0.5)) +
                 " ns, deadline 9000 ns");
  }

  // The bisection walks a fixed grid with >= 1000 samples on every rung.
  {
    std::unique_ptr<Scenario> sc = MakeMmioFwd(1, nullptr);
    sc->Setup();
    BisectResult b = Bisect(*sc, sc->search());
    AddCheck(checks, "bisect.samples_per_rung", b.min_samples >= 1000,
             std::to_string(b.rungs) + " rungs, fewest samples " +
                 std::to_string(b.min_samples));
    AddCheck(checks, "bisect.found_rate", b.rate > 0,
             "max_rate_at_slo " + Num(b.rate));
    sc->Teardown(checks);
  }
  return "{\"self_test\":true,\"checks\":" + ChecksJson(checks) + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_sim --workload NAME[,NAME...] --seed N "
               "--seconds S --trace 0|1\n"
               "       perfbench_sim --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Every set-up allocates and zeroes the pod's memory (44-224 MiB). Kept
  // in the heap, memory freed by one set-up serves the next without fresh
  // page faults, whose cost on a shared machine varies far more than the
  // zeroing itself.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  std::string workloads;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      workloads = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (self_test) {
    std::printf("%s\n", SelfTest().c_str());
    return 0;
  }
  if (workloads.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  std::vector<const WorkloadSpec*> specs;
  size_t pos = 0;
  while (pos <= workloads.size()) {
    size_t comma = std::min(workloads.find(',', pos), workloads.size());
    const WorkloadSpec* spec = FindWorkload(workloads.substr(pos, comma - pos));
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown workload in '%s'\n", workloads.c_str());
      return 2;
    }
    specs.push_back(spec);
    pos = comma + 1;
  }
  for (const WorkloadSpec* spec : specs) {
    std::string out = trace == 0 ? EndToEnd(*spec, seed, seconds)
                                 : PerLayer(*spec, seed, seconds);
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }
  return 0;
}
