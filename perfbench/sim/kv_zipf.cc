// kv_zipf: the pooled memcached tenant under open-loop zipfian load.
//
// kv_soak's topology without its chaos: hosts 1 and 2 each run a KV server
// (pooled NIC with rings in the pool, a 192-buffer value pool, a host-local
// pooled SSD with its rings in DRAM as the cold tier); hosts 3 and 0 each
// drive one server with a kv::LoadGen. Every key of both namespaces is
// preloaded, and the key space is 2.7x the value pool, so GETs split
// between pool hits and SSD hydrations and SETs evict. Every device is host-local, so forwarding
// stays idle.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/sim/harness.h"
#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/core/virtual_ssd.h"
#include "src/kv/loadgen.h"
#include "src/kv/node.h"
#include "src/kv/store.h"
#include "src/sim/task.h"
#include "src/stack/buffer_pool.h"
#include "src/stack/udp.h"

namespace perfbench {
namespace {

using namespace cxlpool;
using core::Rack;
using sim::Task;

constexpr int kHostClientB = 0;
constexpr int kHostServerA = 1;
constexpr int kHostServerB = 2;
constexpr int kHostClientA = 3;
constexpr uint16_t kPort = 11211;
constexpr uint32_t kValueBuffers = 192;  // per server
constexpr uint32_t kBufBytes = 2048;
constexpr uint64_t kSsdCapacity = 4 * kMiB;
constexpr uint64_t kKeys = 512;           // per client; > 2.5x the value pool
constexpr double kRate = 50e3;            // offered ops/s per client
constexpr Nanos kWindow = 12 * kMillisecond;
constexpr Nanos kWindowWarmup = 500 * kMicrosecond;
constexpr Nanos kWarmup = 3 * kMillisecond;
constexpr int kPreloaders = 16;           // concurrent preload coroutines

kv::LoadGenConfig GenConfig(uint64_t seed) {
  kv::LoadGenConfig c;
  c.keys = kKeys;
  c.zipf_theta = 0.99;
  c.get_fraction = 0.88;
  c.delete_fraction = 0.02;
  c.value_bytes_min = 64;
  c.value_bytes_max = 1024;
  c.connections = 4;
  c.pipeline_depth = 32;
  c.max_outstanding = 256;
  // kv_soak uses 300 us. With a fifth of GETs hydrating from the SSD, an
  // SSD command then sometimes reaches its deadline after submission, and
  // the run ends with torn GETs (README: "Known failures"); 1 ms keeps the
  // measured load clear of that path.
  c.op_deadline = kMillisecond;
  c.seed = seed;
  return c;
}

// Times the SSD's submission doorbell (an MMIO write on the device's own
// path) without changing it: the wrapper adds no simulated time.
class TimedDoorbell : public core::MmioPath {
 public:
  TimedDoorbell(std::unique_ptr<core::MmioPath> inner, sim::EventLoop& loop,
                const LayerTap* tap, sim::Histogram* out)
      : inner_(std::move(inner)), loop_(loop), tap_(tap), out_(out) {}

  Task<Status> Write(uint64_t reg, uint64_t value, obs::TraceContext parent,
                     Nanos deadline) override {
    Nanos start = loop_.now();
    Status st = co_await inner_->Write(reg, value, parent, deadline);
    Nanos from = tap_->first_window_start();
    if (reg == devices::kSsdRegSqDoorbell && from >= 0 && start >= from) {
      out_->Add(loop_.now() - start);
    }
    co_return st;
  }
  Task<Result<uint64_t>> Read(uint64_t reg, obs::TraceContext parent,
                              Nanos deadline) override {
    return inner_->Read(reg, parent, deadline);
  }
  bool is_remote() const override { return inner_->is_remote(); }

 private:
  std::unique_ptr<core::MmioPath> inner_;
  sim::EventLoop& loop_;
  const LayerTap* tap_;
  sim::Histogram* out_;
};

struct Endpoint {
  Rack::VirtualNicHandle nic;
  std::unique_ptr<stack::BufferPool> pool;
  std::unique_ptr<stack::UdpStack> stack;
};

struct Server {
  Endpoint ep;
  std::unique_ptr<core::VirtualSsd> ssd;
  std::unique_ptr<stack::BufferPool> values;
  std::unique_ptr<kv::Store> store;
  std::unique_ptr<kv::KvNode> node;
};

struct Client {
  Endpoint ep;
  std::unique_ptr<kv::LoadGen> gen;
};

class KvZipf : public Scenario {
 public:
  KvZipf(uint64_t seed, LayerTap* tap) : seed_(seed), tap_(tap) {}

  void Setup() override;
  Nanos window() const override { return kWindow; }
  void StartMeasured(int windows) override;
  OpWindow FinishMeasured() override { return FinishPhase(); }
  void CheckOutputs(Checks& checks, bool full) override;
  OpWindow RunRung(double x) override;
  // kv_soak's 120 us SLO assumes an all-pool working set: here one SSD
  // hydration alone takes ~100 us and p99 starts near 150 us, so the SLO is
  // half the 1 ms op deadline.
  SloSearch search() const override {
    return {.lo = 10e3, .hi = 330e3, .resolution = 10e3,
            .p99_slo = 500 * kMicrosecond, .open_loop = true};
  }
  void EmitLayers(Metrics& out, const OpWindow& ops) override;
  void Teardown(Checks& checks) override;
  sim::EventLoop& loop() override { return loop_; }
  Rack& rack() override { return *rack_; }

 private:
  obs::Registry* registry() { return tap_ != nullptr ? &tap_->registry() : nullptr; }
  Task<> Build();
  Task<> MakeEndpoint(HostId host, Endpoint* out);
  Task<> MakeServer(Server* s, HostId host, const char* tag);
  Task<> Preload(kv::Store* store, uint32_t client_id, uint64_t first, int* done);
  Task<> RunPhase(kv::LoadGen* gen, double rate, Nanos dur, Nanos warmup,
                  kv::PhaseStats* out, int* done);
  // One phase of both clients at `rate` each: started, then drained.
  void StartPhase(double rate, Nanos dur, Nanos warmup);
  Task<> WaitPhases();
  OpWindow FinishPhase();
  OpWindow Phase(double rate, Nanos dur, Nanos warmup);

  uint64_t seed_;
  LayerTap* tap_;
  sim::EventLoop loop_;
  std::unique_ptr<Rack> rack_;
  Server servers_[2];
  Client clients_[2];
  sim::Histogram doorbell_ns_;
  uint64_t preload_failures_ = 0;
  struct {
    double rate = 0;
    Nanos dur = 0;
    Nanos warmup = 0;
  } phase_;
  kv::PhaseStats phase_stats_[2];
  int phases_done_ = 0;
};

Task<> KvZipf::MakeEndpoint(HostId host, Endpoint* out) {
  core::VirtualNic::Config vc;
  vc.rings_in_cxl = true;
  auto handle = co_await rack_->CreateVirtualNic(host, vc);
  CXLPOOL_CHECK_OK(handle.status());
  out->nic = std::move(*handle);
  auto pool = stack::BufferPool::Create(rack_->pod().host(host),
                                        stack::Placement::kCxlPool, 256, kBufBytes);
  CXLPOOL_CHECK_OK(pool.status());
  out->pool = std::move(*pool);
  out->stack = std::make_unique<stack::UdpStack>(
      rack_->pod().host(host), out->nic.vnic.get(), out->pool.get(), out->nic.mac,
      stack::UdpStack::Config{});
  CXLPOOL_CHECK_OK(co_await out->stack->Start(rack_->stop_token()));
}

Task<> KvZipf::MakeServer(Server* s, HostId host, const char* tag) {
  co_await MakeEndpoint(host, &s->ep);
  auto lease = rack_->AcquireDevice(host, core::DeviceType::kSsd);
  CXLPOOL_CHECK_OK(lease.status());
  core::VirtualSsd::Config sc;
  // The SSD's queue rings stay in host DRAM (kv_soak puts them in the
  // pool). With pool rings the device now and then reads a submission slot
  // before the command's nt-store has committed, re-runs the slot's old
  // command and never completes the new one (README: "Known failures").
  sc.rings_in_cxl = false;
  std::unique_ptr<core::MmioPath> mmio = std::move(lease->mmio);
  if (tap_ != nullptr) {
    sc.tracer = &tap_->tracer();
    mmio = std::make_unique<TimedDoorbell>(std::move(mmio), loop_, tap_,
                                           &doorbell_ns_);
  }
  auto ssd = co_await core::VirtualSsd::Create(rack_->pod().host(host),
                                               std::move(mmio), sc);
  CXLPOOL_CHECK_OK(ssd.status());
  s->ssd = std::move(*ssd);
  auto values = stack::BufferPool::Create(rack_->pod().host(host),
                                          stack::Placement::kCxlPool,
                                          kValueBuffers, kBufBytes);
  CXLPOOL_CHECK_OK(values.status());
  s->values = std::move(*values);
  kv::StoreConfig store_cfg;
  store_cfg.shards = 8;
  store_cfg.free_low_water = 8;
  store_cfg.scrub_interval = 500 * kMicrosecond;
  s->store = std::make_unique<kv::Store>(s->values.get(), s->ssd.get(), kSsdCapacity,
                                         store_cfg, registry(),
                                         obs::Labels{{"node", tag}});
  kv::NodeConfig node_cfg;
  node_cfg.port = kPort;
  node_cfg.workers = 2;
  node_cfg.max_inflight = 96;
  s->node = std::make_unique<kv::KvNode>(s->ep.stack.get(), s->store.get(), node_cfg,
                                         registry(), obs::Labels{{"node", tag}});
  CXLPOOL_CHECK_OK(s->node->Start(rack_->stop_token()));
  sim::Spawn(s->store->ScrubLoop(rack_->stop_token()));
}

// Loads ranks first, first + kPreloaders, ... of one client's namespace
// ("c<id>-k<rank>", the key names kv::LoadGen documents) at version 1.
Task<> KvZipf::Preload(kv::Store* store, uint32_t client_id, uint64_t first,
                       int* done) {
  const kv::LoadGenConfig cfg = GenConfig(seed_);
  for (uint64_t rank = first; rank < kKeys; rank += kPreloaders) {
    std::vector<std::byte> value = kv::LoadGen::MakeValue(rank, 1, cfg);
    std::string key = "c" + std::to_string(client_id) + "-k" + std::to_string(rank);
    Status st = co_await store->Set(key, value, loop_.now() + 20 * kMillisecond);
    preload_failures_ += st.ok() ? 0 : 1;
  }
  ++*done;
}

Task<> KvZipf::Build() {
  co_await MakeServer(&servers_[0], HostId(kHostServerA), "a");
  co_await MakeServer(&servers_[1], HostId(kHostServerB), "b");
  co_await MakeEndpoint(HostId(kHostClientA), &clients_[0].ep);
  co_await MakeEndpoint(HostId(kHostClientB), &clients_[1].ep);
  for (int i = 0; i < 2; ++i) {
    const char* tag = i == 0 ? "a" : "b";
    // Each client's arrivals, keys and op mix come from the run's seed.
    clients_[i].gen = std::make_unique<kv::LoadGen>(
        clients_[i].ep.stack.get(), servers_[i].ep.nic.mac, kPort,
        /*client_id=*/static_cast<uint32_t>(i + 1),
        GenConfig(seed_ * 1000003 + static_cast<uint64_t>(i)), registry(),
        obs::Labels{{"client", tag}});
    CXLPOOL_CHECK_OK(clients_[i].gen->Start(rack_->stop_token()));
  }
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    for (int p = 0; p < kPreloaders; ++p) {
      sim::Spawn(Preload(servers_[i].store.get(), static_cast<uint32_t>(i + 1),
                         static_cast<uint64_t>(p), &done));
    }
  }
  while (done < 2 * kPreloaders) {
    co_await sim::Delay(loop_, 50 * kMicrosecond);
  }
}

void KvZipf::Setup() {
  core::RackConfig rc;
  rc.pod.num_hosts = 4;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.ssds_per_host = 1;
  rc.obs = tap_ != nullptr ? tap_->obs() : nullptr;
  rack_ = std::make_unique<Rack>(loop_, rc);
  rack_->Start();
  sim::RunBlocking(loop_, Build());
  CXLPOOL_CHECK(preload_failures_ == 0);
  (void)Phase(kRate, kWarmup, 0);
}

Task<> KvZipf::RunPhase(kv::LoadGen* gen, double rate, Nanos dur, Nanos warmup,
                        kv::PhaseStats* out, int* done) {
  *out = co_await gen->RunPhase(rate, dur, warmup);
  ++*done;
}

void KvZipf::StartPhase(double rate, Nanos dur, Nanos warmup) {
  phase_ = {rate, dur, warmup};
  phases_done_ = 0;
  for (int i = 0; i < 2; ++i) {
    sim::Spawn(RunPhase(clients_[i].gen.get(), rate, dur, warmup, &phase_stats_[i],
                        &phases_done_));
  }
}

Task<> KvZipf::WaitPhases() {
  while (phases_done_ < 2) {
    co_await sim::Delay(loop_, 100 * kMicrosecond);
  }
}

OpWindow KvZipf::FinishPhase() {
  sim::RunBlocking(loop_, WaitPhases());
  OpWindow w;
  w.deadline = GenConfig(seed_).op_deadline;
  w.span = phase_.dur - phase_.warmup;
  // LoadGen books a response only if it lands inside the window; a request
  // sent in the window and answered later is late (OpWindow::late()).
  for (const kv::PhaseStats& s : phase_stats_) {
    w.attempted += s.sent + s.skipped;
    w.served += s.ok + s.not_found;
    w.failed += s.overloaded + s.expired + s.data_loss + s.timeouts + s.skipped;
    w.latency.MergeFrom(s.rtt);
    w.sent += s.sent;
    w.offered += phase_.rate * static_cast<double>(w.span) / 1e9;
  }
  return w;
}

OpWindow KvZipf::Phase(double rate, Nanos dur, Nanos warmup) {
  StartPhase(rate, dur, warmup);
  return FinishPhase();
}

void KvZipf::StartMeasured(int windows) {
  if (tap_ != nullptr) {
    for (const char* tag : {"a", "b"}) {
      tap_->registry().GetHistogram("kv.service_ns", {{"node", tag}})->Reset();
    }
  }
  StartPhase(kRate, windows * kWindow, kWindowWarmup);
}

OpWindow KvZipf::RunRung(double x) {
  // At least 10000 arrivals across both clients. Ops still in flight when
  // the rung ends count at the deadline, so a short rung would fail its p99
  // on them alone near the knee (12 ms rungs put max_rate_at_slo anywhere
  // from 150k to 180k across seeds).
  Nanos dur = std::max<Nanos>(24 * kMillisecond,
                              static_cast<Nanos>(5000.0 / x * 1e9)) +
              kWindowWarmup;
  return Phase(x, dur, kWindowWarmup);
}

void KvZipf::CheckOutputs(Checks& checks, bool full) {
  for (int i = 0; i < 2; ++i) {
    const std::string who = i == 0 ? "client a" : "client b";
    uint64_t torn = clients_[i].gen->integrity_failures();
    AddCheck(checks, "kv.loadgen_integrity", torn == 0,
             who + ": " + std::to_string(torn) + " torn or rolled-back GETs");
    if (!full) {
      continue;
    }
    kv::AuditResult a =
        sim::RunBlocking(loop_, clients_[i].gen->VerifyAckedSets(/*exempt_before=*/0));
    bool ok = a.checked > 0 && a.integrity_failures == 0 && a.missing_recent == 0 &&
              a.missing_old == 0 && a.unverifiable == 0;
    AddCheck(checks, "kv.acked_sets_audit", ok,
             who + ": checked " + std::to_string(a.checked) + ", integrity " +
                 std::to_string(a.integrity_failures) + ", missing " +
                 std::to_string(a.missing_recent + a.missing_old) +
                 ", unverifiable " + std::to_string(a.unverifiable));
  }
}

void KvZipf::EmitLayers(Metrics& out, const OpWindow& ops) {
  out["doorbell.ring_ns.p50"] = InterpolatedPercentile(doorbell_ns_, 0.5);
  sim::Histogram service;
  for (const char* tag : {"a", "b"}) {
    service.MergeFrom(*tap_->registry().FindHistogram("kv.service_ns", {{"node", tag}}));
  }
  out["kv.service_ns.p50"] = InterpolatedPercentile(service, 0.5);
  out["kv.service_ns.p99"] = InterpolatedPercentile(service, 0.99);
  out["kv.net_ns.p50"] = InterpolatedPercentile(ops.latency, 0.5) - out["kv.service_ns.p50"];
}

void KvZipf::Teardown(Checks& checks) {
  rack_->Shutdown();
  loop_.RunFor(500 * kMicrosecond);
  uint64_t lost = rack_->pod().TotalLostDirtyLines();
  AddCheck(checks, "pod.lost_dirty_lines", lost == 0,
           "kv_zipf: " + std::to_string(lost) + " lines");
}

}  // namespace

std::unique_ptr<Scenario> MakeKvZipf(uint64_t seed, LayerTap* tap) {
  return std::make_unique<KvZipf>(seed, tap);
}

}  // namespace perfbench
