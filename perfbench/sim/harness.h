// Shared measurement machinery for the benchmark's three workloads.
//
// A workload is a Scenario: it builds one rack (the timed set-up), runs one
// continuous measured phase at its operating point, cut into equal
// simulated sub-windows that are each timed on the host clock, checks its
// outputs, and can run one rung of the max_rate_at_slo bisection. What it
// measures in simulated time lands in an OpWindow; what the traced run
// measures per layer lands in a Metrics map.
#ifndef PERFBENCH_SIM_HARNESS_H_
#define PERFBENCH_SIM_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/rack.h"
#include "src/cxl/coherence_observer.h"
#include "src/obs/obs.h"
#include "src/sim/stats.h"

namespace perfbench {

using cxlpool::Nanos;

// Per-layer metric name -> value.
using Metrics = std::map<std::string, double>;

// A percentile needs this many samples beyond it before it is reported.
inline constexpr uint64_t kMinTailSamples = 10;

// Ops of one measured phase or bisection rung, in simulated time. Every
// attempted op is served, failed or late: late ops were answered only after
// the window closed, so the generators took no latency sample for them.
struct OpWindow {
  uint64_t attempted = 0;  // arrivals (open loop) or issued ops (closed loop)
  uint64_t served = 0;     // answered inside the window; one sample each
  uint64_t failed = 0;     // timeouts, refusals, client-side skips, errors
  cxlpool::sim::Histogram latency;  // served ops, sim ns
  Nanos deadline = 0;      // the latency charged to every failed or late op
  Nanos span = 0;          // simulated ns the window covers
  double offered = 0;      // expected arrivals (open loop); 0 when closed
  uint64_t sent = 0;       // arrivals the generator actually sent

  uint64_t late() const { return attempted - served - failed; }
  // Whether the counts add up: one sample per served op, and served plus
  // failed no more than attempted.
  bool Consistent() const {
    return latency.count() == served && served + failed <= attempted;
  }
  // Served latencies plus every failed and late op at `deadline`.
  cxlpool::sim::Histogram WithFailures() const;
  // Percentile p of WithFailures(), or -1 when fewer than kMinTailSamples
  // samples lie beyond it (the percentile is refused).
  double Percentile(double p) const;
  double GoodputOps() const;  // served per simulated second
  // One line that changes whenever any sim_* value changes.
  std::string Digest() const;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};
using Checks = std::vector<Check>;
void AddCheck(Checks& checks, std::string name, bool ok, std::string detail);

// Percentile p of `h`, placed inside its histogram bucket by rank.
// sim::Histogram reports bucket midpoints, so on its own a percentile reads
// the same for every seed whose distribution lands in one 1.1%-wide bucket.
double InterpolatedPercentile(const cxlpool::sim::Histogram& h, double p);

// Host clock.
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The machine this runs on is shared, and how fast a core runs changes by
// up to 2x within minutes. Every host-time sample is therefore paired with
// a reference kernel run right after it: a fixed memory- and ALU-bound loop
// that shares no code with the simulator. Host time is reported as the
// time it would have taken with the kernel at its nominal speed,
// kReferenceSeconds: elapsed x kReferenceSeconds / kernel time. A slower
// simulator still reads slower; a slower core does not.

// The kernel's time on the 4-core x86 server the benchmark was tuned on,
// when that machine was quiet.
inline constexpr double kReferenceSeconds = 0.004;
// Warms the kernel's 4 MiB table, then returns the median of three timed
// passes.
double ReferenceKernelSeconds();
// One sample, rescaled with a kernel run taken right now.
double ScaledHostSeconds(double elapsed);

// Counts pool-line events per CoherenceOp (the mem layer's work).
class LineCounter : public cxlpool::cxl::CoherenceObserver {
 public:
  void OnLineEvent(const cxlpool::cxl::CoherenceEvent& ev) override {
    ++counts_[static_cast<size_t>(ev.op)];
  }
  void OnHandoff(cxlpool::HostId, uint64_t, uint64_t, std::string_view,
                 Nanos) override {}
  uint64_t count(cxlpool::cxl::CoherenceOp op) const {
    return counts_[static_cast<size_t>(op)];
  }
  uint64_t total() const;

 private:
  uint64_t counts_[16] = {};
};

// The traced run's taps on one rack: the line counter, CXL link counters,
// registry deltas and spans, all limited to the measured windows.
class LayerTap {
 public:
  explicit LayerTap(cxlpool::obs::Observability* obs) : obs_(obs) {}

  void BeginWindow(cxlpool::core::Rack& rack);
  void EndWindow(cxlpool::core::Rack& rack);

  // Metrics of the layers every workload shares: sim, mem, cxl, the
  // forwarding spans, stack and kv registry series, obs. Call once, after
  // the measured phase has drained; `ops` is that phase.
  void Emit(Metrics& out, const OpWindow& ops);

  // Registry counters and probe gauges summed over label sets, from the
  // first window's start to Emit.
  double Delta(const std::string& name) const;
  cxlpool::obs::Observability* obs() { return obs_; }
  cxlpool::obs::Registry& registry() { return obs_->metrics(); }
  cxlpool::obs::Tracer& tracer() { return *obs_->tracer(); }
  // Sim time the first measured window began; -1 before it.
  Nanos first_window_start() const { return first_start_; }

 private:
  cxlpool::obs::Observability* obs_;
  LineCounter lines_;
  std::map<std::string, double> begin_values_;
  std::map<std::string, double> delta_values_;
  std::vector<std::pair<uint64_t, Nanos>> link_start_;  // bytes, busy
  uint64_t link_bytes_ = 0;
  double link_util_max_ = 0;
  Nanos window_start_ = 0;
  Nanos first_start_ = -1;
  uint64_t events_start_ = 0;
  uint64_t events_ = 0;
};

// The max_rate_at_slo search of one workload: the knob is bisected over
// [lo, hi] down to `resolution`. A rung is healthy when its p99 (failures
// included) is at most `p99_slo` and it served at least 0.9x the arrivals
// its generator sent, so no backlog grows. The reported rate is the
// highest healthy rung's offered rate per client (open loop) or its
// goodput (closed loop, where the knob is the producer count).
struct SloSearch {
  double lo = 0;
  double hi = 0;
  double resolution = 0;
  Nanos p99_slo = 0;
  bool open_loop = true;
};

// A workload, built fresh for every set-up.
class Scenario {
 public:
  virtual ~Scenario() = default;
  // Builds the rack, attaches devices, preloads and warms up.
  virtual void Setup() = 0;
  // The measured phase: one continuous run at the workload's operating
  // point, `windows` x window() simulated ns long. Start spawns it; the
  // caller advances the loop one window at a time (timing each on the host
  // clock); Finish lets it drain and returns its ops.
  virtual Nanos window() const = 0;
  virtual void StartMeasured(int windows) = 0;
  virtual OpWindow FinishMeasured() = 0;
  // Correctness checks after the timed windows. `full` adds the costly
  // ones (the acked-SET audit) that run once per invocation.
  virtual void CheckOutputs(Checks& checks, bool full) = 0;
  // One bisection rung: a window at offered load `x` (the knob's unit is
  // the workload's own: ops/s per client, or producers for a closed loop).
  virtual OpWindow RunRung(double x) = 0;
  virtual SloSearch search() const = 0;
  // Workload-specific per-layer metrics over the measured windows.
  virtual void EmitLayers(Metrics& out, const OpWindow& ops) = 0;
  // Stops every actor and checks the pod lost no dirty line.
  virtual void Teardown(Checks& checks) = 0;

  virtual cxlpool::sim::EventLoop& loop() = 0;
  virtual cxlpool::core::Rack& rack() = 0;
};

std::unique_ptr<Scenario> MakeKvZipf(uint64_t seed, LayerTap* tap);
std::unique_ptr<Scenario> MakeUdpEcho(uint64_t seed, LayerTap* tap);
std::unique_ptr<Scenario> MakeMmioFwd(uint64_t seed, LayerTap* tap);

// Host cost of single calls into each layer, in ns per call.
Metrics MeasureHostCosts();

}  // namespace perfbench

#endif  // PERFBENCH_SIM_HARNESS_H_
