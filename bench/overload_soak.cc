// Overload soak: drives the forwarded-MMIO path open-loop from 0.5x to 10x
// its saturation rate and proves the backpressure stack holds the line:
//
//   * goodput stays flat (within 10% of peak) instead of collapsing under
//     queueing + timeout + retry amplification;
//   * control-plane probes (wire priority 0) riding the SAME channel as the
//     data storm never miss a deadline — overload must not look like a
//     wedged device to the watchdog/liveness machinery;
//   * retries stay within the token-bucket budget fraction;
//   * the per-device circuit breaker never opens: budget expiry under
//     overload is not device failure.
//
// A final phase injects a slow-draining home agent (InjectSlowDrain — the
// chaos "overload-drain" fault class in bench form) to push queueing onto
// the server side and exercise the CoDel shed / expired-at-dequeue /
// pre-BAR-expiry refusal chain, again with zero control-plane misses.
//
// Everything runs on the seeded sim clock: same build, same numbers.
// `--short` shrinks phase length for CI; `--json <path>` writes the BENCH
// metrics snapshot.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/obs/obs.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

using namespace cxlpool;
using namespace cxlpool::core;
using sim::RunBlocking;
using sim::Task;

namespace {

constexpr PcieDeviceId kDev{99};
constexpr uint64_t kReg = 0x8;
// Per-op end-to-end budget stamped into the wire (absolute deadline).
constexpr Nanos kOpBudget = 50 * kMicrosecond;
// Control prober: cadence and per-probe budget.
constexpr Nanos kProbeEvery = 20 * kMicrosecond;
constexpr Nanos kProbeBudget = 100 * kMicrosecond;
// Injected handler stall for the slow-drain phase.
constexpr Nanos kDrainStall = 30 * kMicrosecond;

class DoorbellDevice : public pcie::PcieDevice {
 public:
  DoorbellDevice(PcieDeviceId id, sim::EventLoop& loop)
      : PcieDevice(id, "doorbell", loop, cxl::LinkSpec{}, pcie::PcieTiming{}) {}

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override {
    regs_[reg % 16] = value;
  }
  uint64_t OnMmioRead(uint64_t reg) override { return regs_[reg % 16]; }

 private:
  uint64_t regs_[16] = {};
};

struct PhaseResult {
  const char* name = "";
  double factor = 0.0;
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;  // kOverloaded: queue reject / shed / breaker
  uint64_t expired = 0;     // kDeadlineExceeded: budget elapsed somewhere
  uint64_t other = 0;
  sim::Histogram latency;  // successful ops only
};

struct ProbeResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t deadline_misses = 0;
  uint64_t other = 0;
  sim::Histogram latency;
  bool done = false;
};

Task<> OneOp(MmioPath& path, sim::EventLoop& loop, PhaseResult& ph,
             Nanos budget = kOpBudget) {
  Nanos start = loop.now();
  Status st = co_await path.Write(kReg, static_cast<uint64_t>(start), {},
                                  start + budget);
  if (st.ok()) {
    ++ph.ok;
    ph.latency.Add(loop.now() - start);
  } else if (st.code() == StatusCode::kOverloaded) {
    ++ph.overloaded;
  } else if (st.code() == StatusCode::kDeadlineExceeded) {
    ++ph.expired;
  } else {
    ++ph.other;
  }
}

// Open-loop generator: ops arrive on a fixed gap regardless of completions
// — the arrival process a saturated datapath actually faces.
Task<> Storm(MmioPath& path, sim::EventLoop& loop, PhaseResult& ph, Nanos gap,
             Nanos duration) {
  Nanos end = loop.now() + duration;
  while (loop.now() < end) {
    ++ph.offered;
    sim::Spawn(OneOp(path, loop, ph));
    co_await sim::Delay(loop, gap);
  }
}

// Control-priority register reads over the SAME rpc client the data storm
// saturates. These model watchdog/lease traffic: if one of them misses its
// (generous) deadline, overload has turned into a gray-failure false
// positive — exactly what priority + no-shed-control must prevent.
Task<> ControlProbes(ForwardedMmioPath& path, sim::EventLoop& loop,
                     Nanos until, ProbeResult& pr) {
  uint64_t seq = 0;
  while (loop.now() < until) {
    Nanos start = loop.now();
    auto req = mmio_wire::EncodeRead(kDev, path.epoch(), path.client_id(),
                                     ++seq, kReg);
    auto resp = co_await path.rpc_client().Call(
        kMethodMmioRead, req, start + kProbeBudget, {}, msg::kPriorityControl);
    ++pr.sent;
    if (resp.ok()) {
      ++pr.ok;
      pr.latency.Add(loop.now() - start);
    } else if (resp.status().code() == StatusCode::kDeadlineExceeded) {
      ++pr.deadline_misses;
    } else {
      ++pr.other;
    }
    co_await sim::Delay(loop, kProbeEvery);
  }
  pr.done = true;
}

// Deterministic server-side refusal-chain demonstration, run while the
// agent's handler still stalls kDrainStall. Each round: op A's budget
// (20us) is shorter than the stall, so it passes the dequeue check but
// dies at the pre-BAR re-check without touching the device; op B is sent
// the moment A's budget death frees the client turn — while the server is
// still stalled on A — so B's frame ages out in the ring and is refused
// at dequeue. One expired_at_device and one dequeue-expiry per round.
Task<> RefusalChain(MmioPath& path, sim::EventLoop& loop, PhaseResult& ph) {
  for (int i = 0; i < 8; ++i) {
    ++ph.offered;
    sim::Spawn(OneOp(path, loop, ph, 20 * kMicrosecond));
    co_await sim::Delay(loop, 1 * kMicrosecond);
    ++ph.offered;
    sim::Spawn(OneOp(path, loop, ph, 25 * kMicrosecond));
    co_await sim::Delay(loop, 60 * kMicrosecond);
  }
}

Task<> Calibrate(MmioPath& path, sim::EventLoop& loop, int count,
                 sim::Histogram& hist) {
  for (int i = 0; i < count; ++i) {
    Nanos start = loop.now();
    CXLPOOL_CHECK_OK(co_await path.Write(kReg, static_cast<uint64_t>(i)));
    hist.Add(loop.now() - start);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool short_run = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--short") == 0) {
      short_run = true;
    }
  }
  const Nanos duration = short_run ? 1 * kMillisecond : 4 * kMillisecond;
  const Nanos settle = 200 * kMicrosecond;

  std::printf("=== Overload soak: open-loop saturation of the forwarded-MMIO "
              "path ===\n\n");

  const int64_t wall_start = obs::WallNanos();
  sim::EventLoop loop;
  obs::Observability obs;
  RackConfig rc;
  rc.pod.num_hosts = 2;
  rc.pod.num_mhds = 1;
  rc.pod.mhd_capacity = 16 * kMiB;
  rc.pod.dram_per_host = 4 * kMiB;
  rc.obs = &obs;
  // The full protection stack, all knobs at their intended-production
  // settings: bounded client queue (reject-new), retry budget (default),
  // per-agent inflight bound + CoDel (agent defaults), breaker.
  //
  // The queue bound is sized to the deadline budget, not to taste:
  // depth * service_time must stay under kOpBudget or every queued op is
  // already dead when its turn comes and goodput collapses to zero under
  // sustained overload (bufferbloat). 16 * ~2us ~= 32us < 50us.
  rc.orch.mmio_client.max_pending = 16;
  rc.orch.mmio_retry.max_attempts = 3;
  rc.orch.agent.admission.max_inflight = 8;
  rc.orch.breaker.failure_threshold = 5;
  Rack rack(loop, rc);

  DoorbellDevice dev(kDev, loop);
  dev.AttachTo(&rack.pod().host(0));
  rack.orchestrator().RegisterDevice(HostId(0), &dev, DeviceType::kAccel);
  rack.Start();

  auto path = rack.orchestrator().MakeMmioPath(HostId(1), kDev);
  CXLPOOL_CHECK_OK(path.status());
  auto* fwd = static_cast<ForwardedMmioPath*>(path->get());
  Agent* home_agent = rack.orchestrator().agent(HostId(0));
  CXLPOOL_CHECK(home_agent != nullptr);

  // Closed-loop calibration: mean service time of one forwarded doorbell
  // sets the saturation rate every open-loop factor is scaled against.
  sim::Histogram calib;
  RunBlocking(loop, Calibrate(**path, loop, 500, calib));
  Nanos service = std::max<Nanos>(1, static_cast<Nanos>(calib.mean()));
  std::printf("calibration: %llu closed-loop writes, mean %lld ns "
              "(saturation ~%.2f Mop/s)\n\n",
              static_cast<unsigned long long>(calib.count()),
              static_cast<long long>(service), 1000.0 / service);

  const double factors[] = {0.5, 1.0, 2.0, 4.0, 10.0};
  constexpr int kPure = 5;
  PhaseResult phases[kPure + 1];  // + slow-drain phase

  // The control prober runs across every phase, start to finish.
  ProbeResult probes;
  Nanos probe_until = loop.now() + (kPure + 1) * (duration + settle);
  sim::Spawn(ControlProbes(*fwd, loop, probe_until, probes));

  char label[32];
  for (int i = 0; i < kPure; ++i) {
    PhaseResult& ph = phases[i];
    ph.factor = factors[i];
    std::snprintf(label, sizeof(label), "%.1fx", factors[i]);
    ph.name = "open-loop";
    Nanos gap = std::max<Nanos>(
        1, static_cast<Nanos>(static_cast<double>(service) / factors[i]));
    RunBlocking(loop, Storm(**path, loop, ph, gap, duration));
    loop.RunFor(settle);  // drain queued ops into their phase's counters
  }

  // Slow-drain phase: 2x offered load while every forwarded op stalls
  // kDrainStall inside the home agent's handler. Queueing moves to the
  // server side; the refusal chain (expired-at-dequeue, CoDel shed,
  // inflight bound, pre-BAR expiry) must shed dead work there while
  // control probes keep landing.
  {
    PhaseResult& ph = phases[kPure];
    ph.factor = 2.0;
    ph.name = "slow-drain";
    home_agent->InjectSlowDrain(kDrainStall);
    Nanos gap = std::max<Nanos>(
        1, static_cast<Nanos>(static_cast<double>(service) / 2.0));
    RunBlocking(loop, Storm(**path, loop, ph, gap, duration));
    loop.RunFor(settle);  // drain the storm, stall still active
    RunBlocking(loop, RefusalChain(**path, loop, ph));
    home_agent->InjectSlowDrain(0);
    loop.RunFor(settle);
  }
  // Let the prober finish its horizon.
  while (!probes.done) {
    loop.RunFor(settle);
  }

  std::printf("%-11s %7s %9s %9s %11s %9s %8s %8s\n", "phase", "factor",
              "offered", "ok", "overloaded", "expired", "p50ns", "p99ns");
  for (const PhaseResult& ph : phases) {
    std::printf("%-11s %6.1fx %9llu %9llu %11llu %9llu %8lld %8lld\n",
                ph.name, ph.factor,
                static_cast<unsigned long long>(ph.offered),
                static_cast<unsigned long long>(ph.ok),
                static_cast<unsigned long long>(ph.overloaded),
                static_cast<unsigned long long>(ph.expired),
                static_cast<long long>(ph.latency.Percentile(0.5)),
                static_cast<long long>(ph.latency.Percentile(0.99)));
  }

  // The forwarded path's client and retries count under its host (1) plus
  // the device; the home agent and its admission control under host 0.
  const obs::Registry& metrics = rack.pod().metrics();
  auto count = [&metrics](const std::string& name, const obs::Labels& labels) {
    const obs::Counter* c = metrics.FindCounter(name, labels);
    CXLPOOL_CHECK_MSG(c != nullptr, "no counter %s", name.c_str());
    return c->value();
  };
  const obs::Labels path_labels = {{"host", "1"},
                                   {"device", std::to_string(kDev.value())}};
  const obs::Labels home_labels = {{"host", "0"}};
  const obs::Labels dev_labels = {{"device", std::to_string(kDev.value())}};
  const uint64_t client_rejected = count("rpc_client.rejected", path_labels);
  const uint64_t client_expired = count("rpc_client.expired_in_queue", path_labels);
  const uint64_t retry_calls = count("retry.calls", path_labels);
  const double retry_bound =
      rc.orch.mmio_retry.budget_ratio * static_cast<double>(retry_calls) +
      rc.orch.mmio_retry.budget_burst;
  const uint64_t retries = count("retry.retries", path_labels);
  const uint64_t retry_denied = count("retry.budget_denied", path_labels);
  const uint64_t codel_sheds = count("admission.shed", home_labels);
  const uint64_t inflight_rejects = count("admission.inflight_rejects", home_labels);
  const uint64_t rpc_expired = count("agent.rpc_expired", home_labels);
  const uint64_t expired_at_device = count("agent.expired_at_device", home_labels);
  const uint64_t watchdog_misses = count("agent.watchdog_misses", home_labels);
  const uint64_t flr_resets = count("agent.flr_resets", home_labels);
  const uint64_t breaker_opens = count("breaker.opens", dev_labels);
  msg::CircuitBreaker* breaker = rack.orchestrator().breaker(kDev);
  CXLPOOL_CHECK(breaker != nullptr);
  std::printf("\nclient queue: %llu rejected, %llu expired in queue\n",
              static_cast<unsigned long long>(client_rejected),
              static_cast<unsigned long long>(client_expired));
  std::printf("home agent:   %llu codel sheds, %llu inflight rejects, "
              "%llu expired at dequeue, %llu expired pre-BAR\n",
              static_cast<unsigned long long>(codel_sheds),
              static_cast<unsigned long long>(inflight_rejects),
              static_cast<unsigned long long>(rpc_expired),
              static_cast<unsigned long long>(expired_at_device));
  std::printf("retries:      %llu calls, %llu retries, %llu budget-denied "
              "(budget bound %.0f)\n",
              static_cast<unsigned long long>(retry_calls),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(retry_denied), retry_bound);
  std::printf("control:      %llu probes, %llu ok, %llu deadline misses, "
              "p99 %lld ns\n",
              static_cast<unsigned long long>(probes.sent),
              static_cast<unsigned long long>(probes.ok),
              static_cast<unsigned long long>(probes.deadline_misses),
              static_cast<long long>(probes.latency.Percentile(0.99)));
  std::printf("watchdog:     %llu probe misses, %llu FLR resets; breaker "
              "opens %llu\n",
              static_cast<unsigned long long>(watchdog_misses),
              static_cast<unsigned long long>(flr_resets),
              static_cast<unsigned long long>(breaker_opens));

  // --- The contract ---
  // 1. Goodput at 10x within 10% of peak: overload sheds, never collapses.
  uint64_t peak_ok = 0;
  for (int i = 0; i < kPure; ++i) {
    peak_ok = std::max(peak_ok, phases[i].ok);
  }
  std::printf("\ngoodput: peak %llu ok/phase, at 10x %llu (%.1f%% of peak)\n",
              static_cast<unsigned long long>(peak_ok),
              static_cast<unsigned long long>(phases[kPure - 1].ok),
              100.0 * static_cast<double>(phases[kPure - 1].ok) /
                  static_cast<double>(peak_ok));
  CXLPOOL_CHECK(phases[kPure - 1].ok * 10 >= peak_ok * 9);
  // 2. Zero control-plane deadline misses across the whole storm, and the
  //    watchdog never fired: overload did not masquerade as gray failure.
  CXLPOOL_CHECK(probes.sent > 0);
  CXLPOOL_CHECK(probes.deadline_misses == 0);
  CXLPOOL_CHECK(probes.other == 0);
  CXLPOOL_CHECK(probes.ok == probes.sent);
  CXLPOOL_CHECK(watchdog_misses == 0);
  CXLPOOL_CHECK(flr_resets == 0);
  // 3. Retry amplification bounded by the token bucket.
  CXLPOOL_CHECK(static_cast<double>(retries) <= retry_bound);
  // 4. Pure overload and slow drain never open the breaker (budget expiry
  //    is not device failure) and never reach quarantine.
  CXLPOOL_CHECK(breaker_opens == 0);
  CXLPOOL_CHECK(breaker->state(loop.now()) ==
                msg::CircuitBreaker::State::kClosed);
  CXLPOOL_CHECK(!rack.orchestrator().InQuarantine(kDev));
  // 5. Backpressure actually engaged at every layer: the bounded queue
  //    refused work under 10x, and the slow-drain refusal chain shed dead
  //    work server-side both at dequeue and at the pre-BAR re-check.
  CXLPOOL_CHECK(client_rejected + client_expired > 0);
  CXLPOOL_CHECK(rpc_expired >= 4);
  CXLPOOL_CHECK(expired_at_device >= 4);
  // 6. No unexplained failures anywhere.
  for (const PhaseResult& ph : phases) {
    CXLPOOL_CHECK(ph.other == 0);
  }

  if (!json_path.empty()) {
    obs::Registry& reg = obs.metrics();
    for (const PhaseResult& ph : phases) {
      std::snprintf(label, sizeof(label), "%.1fx-%s", ph.factor, ph.name);
      obs::Labels l{{"phase", label}};
      reg.GetCounter("overload.offered", l)->Add(ph.offered);
      reg.GetCounter("overload.ok", l)->Add(ph.ok);
      reg.GetCounter("overload.overloaded", l)->Add(ph.overloaded);
      reg.GetCounter("overload.expired", l)->Add(ph.expired);
      reg.GetHistogram("overload.latency_ns", l)->MergeFrom(ph.latency);
    }
    reg.GetCounter("overload.probe_sent")->Add(probes.sent);
    reg.GetCounter("overload.probe_deadline_misses")
        ->Add(probes.deadline_misses);
    reg.GetHistogram("overload.probe_latency_ns")->MergeFrom(probes.latency);
    reg.GetCounter("overload.client_rejected")->Add(client_rejected);
    reg.GetCounter("overload.client_expired_in_queue")
        ->Add(client_expired);
    reg.GetCounter("overload.agent_shed")
        ->Add(codel_sheds + inflight_rejects);
    reg.GetCounter("overload.agent_expired")
        ->Add(rpc_expired + expired_at_device);
    reg.GetCounter("overload.breaker_opens")->Add(breaker_opens);
    CXLPOOL_CHECK_OK(obs::WriteBenchJson(
        json_path, "overload_soak",
        {.sim_ns = loop.now(), .events = loop.executed(),
         .wall_ns = obs::WallNanos() - wall_start},
        reg));
    std::printf("\nmetrics snapshot:  %s (%zu series)\n", json_path.c_str(),
                reg.series_count());
  }

  std::printf("\nPASS: goodput flat under 10x overload, zero control-plane "
              "misses, retries within budget, breaker closed.\n");

  rack.Shutdown();
  loop.RunFor(500 * kMicrosecond);
  CXLPOOL_CHECK(rack.pod().TotalLostDirtyLines() == 0);
  return 0;
}
