// KV serving soak: the pooled memcached-style node (src/kv) under
// open-loop zipfian load and chaos, end to end on the CXL-pool datapath —
// client UDP stacks and server rings in pool memory, values in pool
// buffers, the cold tail spilled to a pooled SSD and hydrated back on hit.
//
// Topology: four hosts on one pod. Host 1 and host 2 each run a KV server
// (pooled NIC + value BufferPool + pooled SSD cold tier); host 3 drives
// server A, host 0 drives server B, disjoint key namespaces. Phases:
//
//   calibrate  — an offered-rate ladder per client; peak = the highest
//                rung that still meets goodput and p99 criteria.
//   steady     — both clients at 90% of peak; p99 must hold the SLO at
//                >= 90% of the offered goodput.
//   chaos      — one fault phase + one recovery phase per class:
//                  host-crash  : server B's host crashes; repair reboots
//                                the host and cold-restarts the server
//                                process (fresh index — the documented
//                                lost-acked-SET carve-out).
//                  nic-wedge   : server A's physical NIC wedges (gray:
//                                MMIO stalls); recovery is a device Reset
//                                (the modeled watchdog FLR) plus a stack
//                                migration onto a fresh MMIO path.
//                  lossy-link  : the client A <-> server A fabric path
//                                drops/dups/delays frames, then heals.
//                                delay_max stays well under op_deadline so
//                                the client's per-key single-inflight rule
//                                keeps SET ordering intact.
//                  poison-line : lines under server A's value buffers are
//                                poisoned under full load; the store's
//                                scrub/GET paths drop + heal (the
//                                poisoned-media carve-out), and leftover
//                                lines under free buffers are cleared
//                                administratively at repair (page
//                                retirement — those lines held no data).
//                The unaffected client must hold its p99 through every
//                fault phase (cross-server isolation), the affected one
//                must re-enter SLO in the recovery phase, and repair ->
//                first-served-OK is bounded per class.
//   audit      — closed-loop VerifyAckedSets per client: zero lost acked
//                SETs modulo the two carve-outs (restart => missing_old
//                behind exempt_before; poison => missing_recent bounded
//                by the store's poison_dropped_keys budget).
//
// Reproducibility: the whole soak runs twice with one seed — once with
// full observability (registry + tracing + flight recorder), once bare —
// and both runs must produce an identical phase/audit digest and event
// count (tracing purity).
//
// `--short` is the CI gate: same phases, same assertions, reduced
// horizon. `--faults=<comma-list>` keeps only the named chaos classes
// (host-crash, nic-wedge, lossy-link, poison-line). `--json=<path>`
// snapshots the registry (kv.*, kvload.*, soak.*) after the instrumented
// run.
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/core/virtual_ssd.h"
#include "src/kv/loadgen.h"
#include "src/kv/node.h"
#include "src/kv/store.h"
#include "src/netsim/fault_plane.h"
#include "src/obs/obs.h"
#include "src/sim/task.h"
#include "src/stack/buffer_pool.h"
#include "src/stack/udp.h"

using namespace cxlpool;
using namespace cxlpool::core;
using kv::AuditResult;
using kv::LoadGen;
using kv::LoadGenConfig;
using kv::PhaseStats;
using sim::Spawn;
using sim::Task;
using stack::BufferPool;
using stack::Placement;
using stack::UdpStack;

namespace {

// --- topology ---
constexpr int kHostClientB = 0;
constexpr int kHostServerA = 1;
constexpr int kHostServerB = 2;
constexpr int kHostClientA = 3;
constexpr uint16_t kPort = 11211;
constexpr uint32_t kValueBuffers = 192;   // per server; forces SSD overflow
constexpr uint32_t kBufBytes = 2048;
constexpr uint64_t kSsdCapacity = 4 * kMiB;

// --- SLOs (asserted; the printed table shows the measured values) ---
constexpr Nanos kSteadyP99Slo = 120 * kMicrosecond;
// The unaffected client during another server's fault phase.
constexpr Nanos kIsolationP99Slo = 140 * kMicrosecond;
// Structural tail bound for any recorded RTT: op_deadline plus the
// sweeper's grace and cadence. A response slower than this was abandoned.
constexpr Nanos kP999Bound = 450 * kMicrosecond;
// Repair (or restart) to first served-OK response, per chaos class.
constexpr Nanos kRecoveryBound = 4 * kMillisecond;

LoadGenConfig LgConfig(bool short_mode) {
  LoadGenConfig c;
  c.keys = short_mode ? 512 : 1024;
  c.zipf_theta = 0.99;
  c.get_fraction = 0.88;
  c.delete_fraction = 0.02;
  c.value_bytes_min = 64;
  c.value_bytes_max = 1024;
  c.connections = 4;
  c.pipeline_depth = 32;
  c.max_outstanding = 256;
  c.op_deadline = 300 * kMicrosecond;
  c.seed = 0x5EED;
  return c;
}

kv::NodeConfig NodeCfg() {
  kv::NodeConfig c;
  c.port = kPort;
  c.workers = 2;
  c.max_inflight = 96;
  return c;
}

kv::StoreConfig StoreCfg() {
  kv::StoreConfig c;
  c.shards = 8;
  c.free_low_water = 8;
  c.scrub_interval = 500 * kMicrosecond;
  return c;
}

struct Endpoint {
  Rack::VirtualNicHandle nic;
  std::unique_ptr<BufferPool> pool;   // stack TX/RX buffers
  std::unique_ptr<UdpStack> stack;
  // Server endpoints get their own token so a process restart can stop
  // the old stack's IO loop (two stacks must never drive one NIC's
  // rings); clients run on the rack-wide token and this stays null.
  std::unique_ptr<sim::StopToken> stop;
};

// Builds a pooled-NIC UDP endpoint. After a host crash the orchestrator
// fences the dead host's devices until the lease TTL expires, so device
// acquisition is retried — the restarting "process" spins on boot until
// its hardware is grantable again.
Task<> MakeEndpoint(Rack* rack, HostId host, Endpoint* out,
                    sim::StopToken* stack_stop) {
  VirtualNic::Config vc;
  vc.rings_in_cxl = true;  // the pooled-NIC datapath is the experiment
  for (int attempt = 0;; ++attempt) {
    auto handle = co_await rack->CreateVirtualNic(host, vc);
    if (handle.ok()) {
      out->nic = std::move(*handle);
      break;
    }
    CXLPOOL_CHECK(attempt < 64);
    co_await sim::Delay(rack->loop(), 100 * kMicrosecond);
  }
  auto pool = BufferPool::Create(rack->pod().host(host), Placement::kCxlPool,
                                 256, kBufBytes);
  CXLPOOL_CHECK_OK(pool.status());
  out->pool = std::move(*pool);
  out->stack = std::make_unique<UdpStack>(rack->pod().host(host),
                                          out->nic.vnic.get(), out->pool.get(),
                                          out->nic.mac, UdpStack::Config{});
  CXLPOOL_CHECK_OK(co_await out->stack->Start(*stack_stop));
}

// One KV server: pooled NIC endpoint + value pool + SSD cold tier + store
// + node. Restarts park the old generation instead of destroying it —
// suspended coroutines (drained workers, a last scrub tick) may still
// reference it until teardown.
struct Server {
  HostId host{0};
  Endpoint ep;
  Orchestrator::Assignment ssd_assign;
  std::unique_ptr<VirtualSsd> ssd;
  std::unique_ptr<BufferPool> values;
  std::unique_ptr<kv::Store> store;
  std::unique_ptr<kv::KvNode> node;
  std::unique_ptr<sim::StopToken> stop;
  std::vector<std::unique_ptr<BufferPool>> retired_pools;
  std::vector<std::unique_ptr<kv::Store>> retired_stores;
  std::vector<std::unique_ptr<kv::KvNode>> retired_nodes;
  std::vector<std::unique_ptr<sim::StopToken>> retired_stops;
  std::vector<Endpoint> retired_eps;
  std::vector<std::unique_ptr<VirtualSsd>> retired_ssds;

  // Lost-acked-SET audit budget: keys dropped to poisoned media across
  // every generation of this server.
  uint64_t PoisonBudget() const {
    uint64_t n = store != nullptr ? store->poison_dropped_keys() : 0;
    for (const auto& s : retired_stores) {
      n += s->poison_dropped_keys();
    }
    return n;
  }
};

struct Client {
  Endpoint ep;
  std::unique_ptr<LoadGen> gen;
};

struct PhaseRecord {
  std::string phase;
  std::string client;
  PhaseStats stats;
};

struct SoakResult {
  std::vector<PhaseRecord> phases;
  AuditResult audit_a;
  AuditResult audit_b;
  uint64_t poison_budget_a = 0;
  uint64_t poison_budget_b = 0;
  uint64_t acked_a = 0;
  uint64_t acked_b = 0;
  double peak_rate = 0;
  double steady_rate = 0;
  Nanos restart_at = 0;  // server B cold restart (host-crash carve-out)
  std::vector<std::pair<std::string, Nanos>> recovery_ns;  // class -> repair->ok
  uint64_t faults_injected = 0;
  uint64_t executed = 0;
  std::string digest;
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

class Soak {
 public:
  Soak(sim::EventLoop& loop, Rack& rack, bool short_mode,
       const std::set<std::string>& classes, obs::Registry* registry,
       bool print)
      : loop_(loop), rack_(rack), short_mode_(short_mode), classes_(classes),
        registry_(registry), print_(print) {}

  Task<> Run();

  SoakResult result;

 private:
  bool ClassOn(const char* cls) const {
    return classes_.empty() || classes_.count(cls) != 0;
  }
  Nanos Dur(Nanos full) const { return short_mode_ ? full / 2 : full; }

  Task<> MakeServer(Server* s, HostId host, const char* tag);
  Task<> AttachSsd(Server* s);
  Task<> StartNode(Server* s, const char* tag);
  Task<> RestartServer(Server* s, const char* tag);
  Task<> RunOne(LoadGen* gen, double rate, Nanos dur, Nanos warmup,
                PhaseStats* out, int* done);
  Task<> RunPair(const std::string& name, double rate_a, double rate_b,
                 Nanos dur, Nanos warmup, PhaseStats* out_a,
                 PhaseStats* out_b);
  // Polls `gen` until it sees an OK newer than `after`; writes the
  // observation time (0 if `until` passes first).
  Task<> WatchRecovery(LoadGen* gen, Nanos after, Nanos until, Nanos* out,
                       int* done);

  void Record(const std::string& phase, const char* client,
              const PhaseStats& s);

  sim::EventLoop& loop_;
  Rack& rack_;
  bool short_mode_;
  std::set<std::string> classes_;
  obs::Registry* registry_;
  bool print_;

  Server server_a_;
  Server server_b_;
  Client client_a_;
  Client client_b_;
  std::string transcript_;
};

Task<> Soak::StartNode(Server* s, const char* tag) {
  s->stop = std::make_unique<sim::StopToken>();
  s->store = std::make_unique<kv::Store>(s->values.get(), s->ssd.get(),
                                         kSsdCapacity, StoreCfg(), registry_,
                                         obs::Labels{{"node", tag}});
  s->node = std::make_unique<kv::KvNode>(s->ep.stack.get(), s->store.get(),
                                         NodeCfg(), registry_,
                                         obs::Labels{{"node", tag}});
  CXLPOOL_CHECK_OK(s->node->Start(*s->stop));
  Spawn(s->store->ScrubLoop(*s->stop));
  co_return;
}

Task<> Soak::AttachSsd(Server* s) {
  for (int attempt = 0;; ++attempt) {
    auto lease = rack_.AcquireDevice(s->host, DeviceType::kSsd);
    if (lease.ok()) {
      s->ssd_assign = lease->assignment;
      auto ssd = co_await VirtualSsd::Create(rack_.pod().host(s->host),
                                             std::move(lease->mmio), {});
      CXLPOOL_CHECK_OK(ssd.status());
      s->ssd = std::move(*ssd);
      co_return;
    }
    CXLPOOL_CHECK(attempt < 64);
    co_await sim::Delay(loop_, 100 * kMicrosecond);
  }
}

Task<> Soak::MakeServer(Server* s, HostId host, const char* tag) {
  s->host = host;
  s->ep.stop = std::make_unique<sim::StopToken>();
  co_await MakeEndpoint(&rack_, host, &s->ep, s->ep.stop.get());
  co_await AttachSsd(s);
  auto values = BufferPool::Create(rack_.pod().host(host), Placement::kCxlPool,
                                   kValueBuffers, kBufBytes);
  CXLPOOL_CHECK_OK(values.status());
  s->values = std::move(*values);
  co_await StartNode(s, tag);
}

// Cold process restart after a host crash. Everything that was process
// state dies: the index, the pool residency map, the SSD slot map, the
// NIC/SSD leases (the orchestrator fenced and revoked them on death
// declaration), and the UDP stack's ring bindings. The restarted process
// re-acquires its devices (spinning until the fence TTL releases them)
// and comes up empty — acked data not re-set afterwards is gone, which is
// exactly the restart carve-out the audit classifies as missing_old.
Task<> Soak::RestartServer(Server* s, const char* tag) {
  s->stop->Stop();      // node workers + scrub loop
  s->ep.stop->Stop();   // stack IO loop: the old vnic must go quiet
  // Workers notice the token after their current Recv poll; in-flight
  // serves run to completion (bounded by the client op deadline).
  while (s->node->inflight() > 0) {
    co_await sim::Delay(loop_, 50 * kMicrosecond);
  }
  co_await sim::Delay(loop_, 3 * kv::kNodeRecvPoll);
  // Park the old generation: drained-but-suspended coroutines may still
  // hold pointers into it until teardown.
  s->retired_nodes.push_back(std::move(s->node));
  s->retired_stores.push_back(std::move(s->store));
  s->retired_pools.push_back(std::move(s->values));
  s->retired_stops.push_back(std::move(s->stop));
  s->retired_eps.push_back(std::move(s->ep));
  s->retired_ssds.push_back(std::move(s->ssd));
  // Reboot pause, then bring the process up from nothing. The physical
  // NIC is the same card, so the MAC the clients target is stable.
  co_await sim::Delay(loop_, 500 * kMicrosecond);
  s->ep = Endpoint{};
  s->ep.stop = std::make_unique<sim::StopToken>();
  co_await MakeEndpoint(&rack_, s->host, &s->ep, s->ep.stop.get());
  co_await AttachSsd(s);
  auto values = BufferPool::Create(rack_.pod().host(s->host),
                                   Placement::kCxlPool, kValueBuffers,
                                   kBufBytes);
  CXLPOOL_CHECK_OK(values.status());
  s->values = std::move(*values);
  co_await StartNode(s, tag);
}

Task<> Soak::RunOne(LoadGen* gen, double rate, Nanos dur, Nanos warmup,
                    PhaseStats* out, int* done) {
  *out = co_await gen->RunPhase(rate, dur, warmup);
  ++*done;
}

Task<> Soak::RunPair(const std::string& name, double rate_a, double rate_b,
                     Nanos dur, Nanos warmup, PhaseStats* out_a,
                     PhaseStats* out_b) {
  int done = 0;
  Spawn(RunOne(client_a_.gen.get(), rate_a, dur, warmup, out_a, &done));
  Spawn(RunOne(client_b_.gen.get(), rate_b, dur, warmup, out_b, &done));
  while (done < 2) {
    co_await sim::Delay(loop_, 100 * kMicrosecond);
  }
  Record(name, "a", *out_a);
  Record(name, "b", *out_b);
  // Settle between phases: stragglers and sweeps finish.
  co_await sim::Delay(loop_, 200 * kMicrosecond);
}

Task<> Soak::WatchRecovery(LoadGen* gen, Nanos after, Nanos until, Nanos* out,
                           int* done) {
  while (loop_.now() < until && gen->last_ok_at() <= after) {
    co_await sim::Delay(loop_, 20 * kMicrosecond);
  }
  *out = gen->last_ok_at() > after ? loop_.now() : 0;
  ++*done;
}

void Soak::Record(const std::string& phase, const char* client,
                  const PhaseStats& s) {
  result.phases.push_back({phase, client, s});
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "%s|%s|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%lld|%lld|%lld|%llu;",
      phase.c_str(), client, (unsigned long long)s.sent,
      (unsigned long long)s.ok, (unsigned long long)s.overloaded,
      (unsigned long long)s.expired, (unsigned long long)s.not_found,
      (unsigned long long)s.data_loss, (unsigned long long)s.timeouts,
      (unsigned long long)s.skipped, (unsigned long long)s.rtt.count(),
      (long long)s.rtt.Percentile(0.50), (long long)s.rtt.Percentile(0.99),
      (long long)s.rtt.Percentile(0.999),
      (unsigned long long)(s.goodput_ops + 0.5));
  transcript_ += buf;
  if (print_) {
    std::printf(
        "  %-18s %s: sent %6llu ok %6llu to %4llu skip %4llu ovl %4llu "
        "exp %4llu  p50 %6lld  p99 %6lld  p999 %6lld  goodput %8.0f/s\n",
        phase.c_str(), client, (unsigned long long)s.sent,
        (unsigned long long)s.ok, (unsigned long long)s.timeouts,
        (unsigned long long)s.skipped, (unsigned long long)s.overloaded,
        (unsigned long long)s.expired, (long long)s.rtt.Percentile(0.50),
        (long long)s.rtt.Percentile(0.99),
        (long long)s.rtt.Percentile(0.999), s.goodput_ops);
  }
}

Task<> Soak::Run() {
  co_await MakeServer(&server_a_, HostId(kHostServerA), "a");
  co_await MakeServer(&server_b_, HostId(kHostServerB), "b");

  co_await MakeEndpoint(&rack_, HostId(kHostClientA), &client_a_.ep,
                        &rack_.stop_token());
  co_await MakeEndpoint(&rack_, HostId(kHostClientB), &client_b_.ep,
                        &rack_.stop_token());
  client_a_.gen = std::make_unique<LoadGen>(
      client_a_.ep.stack.get(), server_a_.ep.nic.mac, kPort, /*client_id=*/1,
      LgConfig(short_mode_), registry_, obs::Labels{{"client", "a"}});
  client_b_.gen = std::make_unique<LoadGen>(
      client_b_.ep.stack.get(), server_b_.ep.nic.mac, kPort, /*client_id=*/2,
      LgConfig(short_mode_), registry_, obs::Labels{{"client", "b"}});
  CXLPOOL_CHECK_OK(client_a_.gen->Start(rack_.stop_token()));
  CXLPOOL_CHECK_OK(client_b_.gen->Start(rack_.stop_token()));

  PhaseStats a, b;

  // --- calibrate: offered-rate ladder, peak = highest healthy rung ---
  const double kLadder[] = {40e3, 80e3, 120e3};
  double peak = kLadder[0];
  for (double rate : kLadder) {
    char name[32];
    std::snprintf(name, sizeof name, "calibrate-%.0fk", rate / 1e3);
    co_await RunPair(name, rate, rate, Dur(6 * kMillisecond),
                     Dur(2 * kMillisecond), &a, &b);
    bool healthy = a.goodput_ops >= 0.85 * rate && b.goodput_ops >= 0.85 * rate &&
                   a.rtt.Percentile(0.99) <= kSteadyP99Slo &&
                   b.rtt.Percentile(0.99) <= kSteadyP99Slo;
    if (healthy) {
      peak = rate;
    }
  }
  result.peak_rate = peak;
  const double steady = 0.9 * peak;
  result.steady_rate = steady;
  if (print_) {
    std::printf("  peak %.0f ops/s per client -> steady offered %.0f ops/s\n",
                peak, steady);
  }

  // --- steady: hold the SLO at >= 90% of peak goodput ---
  co_await RunPair("steady", steady, steady, Dur(16 * kMillisecond),
                   Dur(3 * kMillisecond), &a, &b);
  CXLPOOL_CHECK(a.goodput_ops >= 0.90 * steady);
  CXLPOOL_CHECK(b.goodput_ops >= 0.90 * steady);
  CXLPOOL_CHECK(a.rtt.Percentile(0.99) <= kSteadyP99Slo);
  CXLPOOL_CHECK(b.rtt.Percentile(0.99) <= kSteadyP99Slo);
  CXLPOOL_CHECK(a.rtt.Percentile(0.999) <= kP999Bound);
  CXLPOOL_CHECK(b.rtt.Percentile(0.999) <= kP999Bound);
  const double steady_goodput_a = a.goodput_ops;
  const double steady_goodput_b = b.goodput_ops;

  const Nanos fault_dur = Dur(10 * kMillisecond);
  const Nanos fault_warm = Dur(2 * kMillisecond);

  // --- chaos: host-crash on server B, cold restart on repair ---
  if (ClassOn("host-crash")) {
    ++result.faults_injected;
    rack_.pod().FailHost(HostId(kHostServerB));
    co_await RunPair("crash-b.fault", steady, steady, fault_dur, fault_warm,
                     &a, &b);
    // The crashed server answers nothing; the unaffected client holds SLO.
    CXLPOOL_CHECK(b.timeouts + b.skipped > 0);
    CXLPOOL_CHECK(a.rtt.Percentile(0.99) <= kIsolationP99Slo);
    CXLPOOL_CHECK(a.rtt.Percentile(0.999) <= kP999Bound);
    rack_.pod().RepairHost(HostId(kHostServerB));
    co_await RestartServer(&server_b_, "b");
    result.restart_at = loop_.now();
    Nanos repaired_at = loop_.now();
    Nanos recovered_at = 0;
    int watch_done = 0;
    Spawn(WatchRecovery(client_b_.gen.get(), repaired_at,
                        repaired_at + fault_dur, &recovered_at, &watch_done));
    co_await RunPair("crash-b.recover", steady, steady, fault_dur, fault_warm,
                     &a, &b);
    while (watch_done < 1) {
      co_await sim::Delay(loop_, 20 * kMicrosecond);
    }
    CXLPOOL_CHECK(recovered_at > 0);
    CXLPOOL_CHECK(recovered_at - repaired_at <= kRecoveryBound);
    result.recovery_ns.emplace_back("host-crash", recovered_at - repaired_at);
    CXLPOOL_CHECK(b.rtt.Percentile(0.99) <= kSteadyP99Slo);
    CXLPOOL_CHECK(b.goodput_ops >= 0.85 * steady_goodput_b);
  }

  // --- chaos: wedged NIC under server A; watchdog-style FLR + stack
  // migration onto a fresh MMIO path ---
  if (ClassOn("nic-wedge")) {
    ++result.faults_injected;
    PcieDeviceId dev = server_a_.ep.nic.assignment.device;
    rack_.nic(dev)->Wedge();
    co_await RunPair("wedge-a.fault", steady, steady, fault_dur, fault_warm,
                     &a, &b);
    CXLPOOL_CHECK(a.timeouts + a.skipped > 0);
    CXLPOOL_CHECK(b.rtt.Percentile(0.99) <= kIsolationP99Slo);
    CXLPOOL_CHECK(b.rtt.Percentile(0.999) <= kP999Bound);
    rack_.nic(dev)->Reset();  // the modeled watchdog FLR
    auto path = rack_.orchestrator().MakeMmioPath(HostId(kHostServerA), dev);
    CXLPOOL_CHECK_OK(path.status());
    CXLPOOL_CHECK_OK(
        co_await server_a_.ep.stack->HandleMigration(std::move(*path)));
    Nanos repaired_at = loop_.now();
    Nanos recovered_at = 0;
    int watch_done = 0;
    Spawn(WatchRecovery(client_a_.gen.get(), repaired_at,
                        repaired_at + fault_dur, &recovered_at, &watch_done));
    co_await RunPair("wedge-a.recover", steady, steady, fault_dur, fault_warm,
                     &a, &b);
    while (watch_done < 1) {
      co_await sim::Delay(loop_, 20 * kMicrosecond);
    }
    CXLPOOL_CHECK(recovered_at > 0);
    CXLPOOL_CHECK(recovered_at - repaired_at <= kRecoveryBound);
    result.recovery_ns.emplace_back("nic-wedge", recovered_at - repaired_at);
    CXLPOOL_CHECK(a.rtt.Percentile(0.99) <= kSteadyP99Slo);
    CXLPOOL_CHECK(a.goodput_ops >= 0.85 * steady_goodput_a);
  }

  // --- chaos: lossy client A <-> server A path ---
  if (ClassOn("lossy-link")) {
    ++result.faults_injected;
    netsim::FaultPlane::LinkState lossy;
    lossy.drop_p = 0.05;
    lossy.dup_p = 0.05;
    lossy.delay_p = 0.20;
    lossy.delay_min = 5 * kMicrosecond;
    // Well under op_deadline: a delayed duplicate of a timed-out SET
    // cannot land after the client has already issued the next version.
    lossy.delay_max = 40 * kMicrosecond;
    netsim::FaultPlane& plane = rack_.pod().fault_plane();
    plane.SetLossy(HostId(kHostClientA), HostId(kHostServerA), lossy);
    plane.SetLossy(HostId(kHostServerA), HostId(kHostClientA), lossy);
    co_await RunPair("lossy-a.fault", steady, steady, fault_dur, fault_warm,
                     &a, &b);
    // Degraded but alive: drops surface as client timeouts, never as
    // corruption; the other pair of hosts is untouched.
    CXLPOOL_CHECK(a.ok > 0);
    CXLPOOL_CHECK(a.timeouts > 0);
    CXLPOOL_CHECK(a.rtt.Percentile(0.999) <= kP999Bound);
    CXLPOOL_CHECK(b.rtt.Percentile(0.99) <= kIsolationP99Slo);
    plane.Heal(HostId(kHostClientA), HostId(kHostServerA));
    plane.Heal(HostId(kHostServerA), HostId(kHostClientA));
    Nanos repaired_at = loop_.now();
    Nanos recovered_at = 0;
    int watch_done = 0;
    Spawn(WatchRecovery(client_a_.gen.get(), repaired_at,
                        repaired_at + fault_dur, &recovered_at, &watch_done));
    co_await RunPair("lossy-a.recover", steady, steady, fault_dur, fault_warm,
                     &a, &b);
    while (watch_done < 1) {
      co_await sim::Delay(loop_, 20 * kMicrosecond);
    }
    CXLPOOL_CHECK(recovered_at > 0);
    CXLPOOL_CHECK(recovered_at - repaired_at <= kRecoveryBound);
    result.recovery_ns.emplace_back("lossy-link", recovered_at - repaired_at);
    CXLPOOL_CHECK(a.rtt.Percentile(0.99) <= kSteadyP99Slo);
    CXLPOOL_CHECK(a.goodput_ops >= 0.85 * steady_goodput_a);
  }

  // --- chaos: poisoned lines under server A's value pool, full load ---
  if (ClassOn("poison-line")) {
    ++result.faults_injected;
    // First line of every value buffer — a whole-DIMM scare, not a single
    // flipped cell. Which buffers hold values at any instant is workload-
    // dependent, so blanketing the pool guarantees resident values are hit:
    // those trip the next scrub pass (or the next GET) and get dropped into
    // the poisoned-media budget. Poison under *free* buffers is harmless by
    // construction: values are >= 64 bytes, so the first line of any new
    // allocation is fully rewritten and the full-line commit clears it.
    std::vector<uint64_t> poisoned;
    uint64_t base = server_a_.values->base();
    uint64_t bsz = server_a_.values->buffer_size();
    for (uint32_t i = 0; i < kValueBuffers; ++i) {
      uint64_t addr = base + i * bsz;
      rack_.pod().PoisonLine(addr);
      poisoned.push_back(addr);
    }
    co_await RunPair("poison-a.fault", steady, steady, fault_dur, fault_warm,
                     &a, &b);
    // The store's scrub/GET machinery must have caught at least one line
    // (the pool runs near-full, so most poisoned buffers held values).
    CXLPOOL_CHECK(server_a_.PoisonBudget() >= 1);
    CXLPOOL_CHECK(a.rtt.Percentile(0.99) <= kIsolationP99Slo);
    CXLPOOL_CHECK(b.rtt.Percentile(0.99) <= kIsolationP99Slo);
    // Repair closure (page retirement): lines still poisoned sat under
    // free buffers — no data above them — or were re-poisoned between a
    // write's issue and its commit. Clear them administratively.
    for (uint64_t addr : poisoned) {
      rack_.pod().ClearPoison(addr);
    }
    co_await RunPair("poison-a.recover", steady, steady, fault_dur, fault_warm,
                     &a, &b);
    result.recovery_ns.emplace_back("poison-line", 0);
    CXLPOOL_CHECK(a.rtt.Percentile(0.99) <= kSteadyP99Slo);
    CXLPOOL_CHECK(a.goodput_ops >= 0.85 * steady_goodput_a);
  }

  // --- final steady + closed-loop audit ---
  co_await RunPair("final", steady, steady, Dur(10 * kMillisecond),
                   Dur(2 * kMillisecond), &a, &b);
  CXLPOOL_CHECK(a.rtt.Percentile(0.99) <= kSteadyP99Slo);
  CXLPOOL_CHECK(b.rtt.Percentile(0.99) <= kSteadyP99Slo);

  result.audit_a = co_await client_a_.gen->VerifyAckedSets(/*exempt_before=*/0);
  result.audit_b = co_await client_b_.gen->VerifyAckedSets(result.restart_at);
  result.poison_budget_a = server_a_.PoisonBudget();
  result.poison_budget_b = server_b_.PoisonBudget();
  result.acked_a = client_a_.gen->acked_sets();
  result.acked_b = client_b_.gen->acked_sets();

  // Zero lost acked SETs, modulo the two documented carve-outs:
  //  - server A never restarted: nothing may be missing_old, and
  //    missing_recent is bounded by its poisoned-media drop budget;
  //  - server B cold-restarted once: losses acked before the restart are
  //    the carve-out (missing_old); nothing acked after it may be gone.
  CXLPOOL_CHECK(client_a_.gen->integrity_failures() == 0);
  CXLPOOL_CHECK(client_b_.gen->integrity_failures() == 0);
  CXLPOOL_CHECK(result.audit_a.integrity_failures == 0);
  CXLPOOL_CHECK(result.audit_b.integrity_failures == 0);
  CXLPOOL_CHECK(result.audit_a.unverifiable == 0);
  CXLPOOL_CHECK(result.audit_b.unverifiable == 0);
  CXLPOOL_CHECK(result.audit_a.missing_old == 0);
  CXLPOOL_CHECK(result.audit_a.missing_recent <= result.poison_budget_a);
  CXLPOOL_CHECK(result.audit_b.missing_recent <= result.poison_budget_b);
  if (result.restart_at == 0) {
    CXLPOOL_CHECK(result.audit_b.missing_old == 0);
  }

  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "audit_a|%llu|%llu|%llu|%llu|%llu;audit_b|%llu|%llu|%llu|%llu|%llu;"
      "poison|%llu|%llu;acked|%llu|%llu;",
      (unsigned long long)result.audit_a.checked,
      (unsigned long long)result.audit_a.present_ok,
      (unsigned long long)result.audit_a.missing_recent,
      (unsigned long long)result.audit_a.missing_old,
      (unsigned long long)result.audit_a.unverifiable,
      (unsigned long long)result.audit_b.checked,
      (unsigned long long)result.audit_b.present_ok,
      (unsigned long long)result.audit_b.missing_recent,
      (unsigned long long)result.audit_b.missing_old,
      (unsigned long long)result.audit_b.unverifiable,
      (unsigned long long)result.poison_budget_a,
      (unsigned long long)result.poison_budget_b,
      (unsigned long long)result.acked_a, (unsigned long long)result.acked_b);
  transcript_ += buf;
  result.digest = transcript_;  // hashed by the caller after executed is known
}

SoakResult RunSoak(bool short_mode, const std::set<std::string>& classes,
                   obs::Observability* obs, const std::string& json_path,
                   bool print) {
  const int64_t wall_start = obs::WallNanos();
  sim::EventLoop loop;
  RackConfig rc;
  rc.pod.num_hosts = 4;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.ssds_per_host = 1;
  rc.obs = obs;
  Rack rack(loop, rc);
  rack.Start();

  Soak soak(loop, rack, short_mode, classes,
            obs != nullptr ? &obs->metrics() : nullptr, print);
  RunBlocking(loop, soak.Run());

  SoakResult r = std::move(soak.result);
  r.executed = loop.executed();
  char tail[64];
  std::snprintf(tail, sizeof tail, "executed|%llu;",
                (unsigned long long)r.executed);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                (unsigned long long)Fnv1a(r.digest + tail));
  r.digest = hex;

  if (!json_path.empty() && obs != nullptr) {
    // Fold the soak outcome into the registry so the snapshot is one
    // self-contained document next to the kv.* / kvload.* series.
    obs::Registry& reg = obs->metrics();
    reg.GetGauge("soak.peak_offered_ops")->Set((int64_t)r.peak_rate);
    reg.GetGauge("soak.steady_offered_ops")->Set((int64_t)r.steady_rate);
    reg.GetCounter("soak.faults_injected")->Add(r.faults_injected);
    for (const auto& [cls, ns] : r.recovery_ns) {
      reg.GetHistogram("soak.recovery_ns", {{"class", cls}})->Add(ns);
    }
    for (const PhaseRecord& p : r.phases) {
      obs::Labels labels{{"phase", p.phase}, {"client", p.client}};
      reg.GetCounter("soak.phase_ok", labels)->Add(p.stats.ok);
      reg.GetCounter("soak.phase_timeouts", labels)->Add(p.stats.timeouts);
      reg.GetGauge("soak.phase_p99_ns", labels)
          ->Set(p.stats.rtt.Percentile(0.99));
    }
    reg.GetCounter("soak.audit_checked")->Add(r.audit_a.checked +
                                              r.audit_b.checked);
    reg.GetCounter("soak.audit_present_ok")->Add(r.audit_a.present_ok +
                                                 r.audit_b.present_ok);
    CXLPOOL_CHECK_OK(obs::WriteBenchJson(
        json_path, "kv_soak",
        {.sim_ns = loop.now(), .events = loop.executed(),
         .wall_ns = obs::WallNanos() - wall_start},
        reg));
    if (print) {
      std::printf("metrics snapshot:  %s (%zu series)\n", json_path.c_str(),
                  reg.series_count());
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path;
  std::set<std::string> classes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      std::string list = argv[i] + 9;
      size_t pos = 0;
      while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) {
          comma = list.size();
        }
        if (comma > pos) {
          classes.insert(list.substr(pos, comma - pos));
        }
        pos = comma + 1;
      }
    }
  }
  std::printf("=== kv soak: pooled memcached vs open-loop zipf + chaos%s ===\n\n",
              short_mode ? " (short)" : "");

  // First run: full observability — registry metrics, tracing, and the
  // flight recorder wired to CHECK failures.
  obs::Observability obs;
  obs.InstallCheckHook();
  SoakResult first = RunSoak(short_mode, classes, &obs, json_path, true);

  std::printf("\naudit A: checked %llu present %llu missing_recent %llu "
              "missing_old %llu unverifiable %llu (poison budget %llu)\n",
              (unsigned long long)first.audit_a.checked,
              (unsigned long long)first.audit_a.present_ok,
              (unsigned long long)first.audit_a.missing_recent,
              (unsigned long long)first.audit_a.missing_old,
              (unsigned long long)first.audit_a.unverifiable,
              (unsigned long long)first.poison_budget_a);
  std::printf("audit B: checked %llu present %llu missing_recent %llu "
              "missing_old %llu unverifiable %llu (restart carve-out at "
              "%llu ns)\n",
              (unsigned long long)first.audit_b.checked,
              (unsigned long long)first.audit_b.present_ok,
              (unsigned long long)first.audit_b.missing_recent,
              (unsigned long long)first.audit_b.missing_old,
              (unsigned long long)first.audit_b.unverifiable,
              (unsigned long long)first.restart_at);
  for (const auto& [cls, ns] : first.recovery_ns) {
    std::printf("recovery[%-11s] repair -> first OK: %lld ns\n", cls.c_str(),
                (long long)ns);
  }

  // Second run: same seed, observability off. Identical digests prove
  // reproducibility and tracing purity at once.
  std::printf("\nre-running the identical seed with observability off...\n");
  SoakResult second = RunSoak(short_mode, classes, nullptr, "", false);
  CXLPOOL_CHECK(first.digest == second.digest);
  CXLPOOL_CHECK(first.executed == second.executed);
  std::printf("reproducibility:   OK — identical phase/audit digest %s and "
              "event count (%llu) with tracing on and off\n",
              first.digest.c_str(), (unsigned long long)first.executed);
  std::printf("\nkv soak: PASS\n");
  return 0;
}
