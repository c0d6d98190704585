// udp_echo: the Fig. 3 datapath. A UDP echo server on host 0 keeps its TX/RX
// buffers in the CXL pool; host 1 drives it open loop with
// stack::RunUdpLoad (8 senders, 512 B payloads) at one rate near the knee.
// No KV, no SSD, no forwarding: this is the workload with the most events
// per simulated op, so event-loop, cache, write-back and routing host costs
// show most here.
#include <memory>
#include <string>

#include "perfbench/sim/harness.h"
#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/sim/task.h"
#include "src/stack/buffer_pool.h"
#include "src/stack/loadgen.h"
#include "src/stack/udp.h"

namespace perfbench {
namespace {

using namespace cxlpool;
using core::Rack;
using sim::Task;

constexpr uint16_t kEchoPort = 7;
constexpr uint16_t kClientPort = 9;
constexpr uint32_t kPayload = 512;
constexpr int kSenders = 8;
constexpr double kRate = 3.0e6;  // offered datagrams/s; the cliff is ~4.1M
constexpr Nanos kWindow = 4 * kMillisecond;
constexpr Nanos kWarmup = 2 * kMillisecond;
// The latency charged to every datagram without an RTT sample: skipped,
// lost, or echoed after the window closed. It is no cutoff; RunUdpLoad
// waits up to 2 ms past the window for echoes.
constexpr Nanos kEchoDeadline = 200 * kMicrosecond;

struct Node {
  Rack::VirtualNicHandle nic;
  std::unique_ptr<stack::BufferPool> pool;
  std::unique_ptr<stack::UdpStack> stack;
};

class UdpEcho : public Scenario {
 public:
  UdpEcho(uint64_t seed, LayerTap* tap) : seed_(seed), tap_(tap) {}

  void Setup() override;
  Nanos window() const override { return kWindow; }
  void StartMeasured(int windows) override { StartLoad(kRate, windows * kWindow); }
  OpWindow FinishMeasured() override { return FinishLoad(); }
  void CheckOutputs(Checks&, bool) override {}
  OpWindow RunRung(double x) override {
    // At least 2500 datagrams.
    StartLoad(x, std::max<Nanos>(kWindow, static_cast<Nanos>(2500.0 / x * 1e9)));
    return FinishLoad();
  }
  // The SLO sits above the ~13-18 us of a working echo path, so the search
  // finds the cliff where datagrams start to be lost (~4.2M/s).
  SloSearch search() const override {
    return {.lo = 0.25e6, .hi = 6.25e6, .resolution = 0.125e6,
            .p99_slo = 20 * kMicrosecond, .open_loop = true};
  }
  void EmitLayers(Metrics&, const OpWindow&) override {}
  void Teardown(Checks& checks) override;
  sim::EventLoop& loop() override { return loop_; }
  Rack& rack() override { return *rack_; }

 private:
  obs::Registry& registry() { return tap_ != nullptr ? tap_->registry() : own_registry_; }
  Task<> MakeNode(HostId host, stack::Placement buffers, Node* out);
  Task<> Build();
  // One stack::RunUdpLoad run at `rate` for `duration`, started, then
  // drained and read back from the registry series it writes under a fresh
  // label set.
  void StartLoad(double rate, Nanos duration);
  Task<> LoadTask(stack::LoadGenConfig lg, obs::Labels labels);
  Task<> WaitLoad();
  OpWindow FinishLoad();

  uint64_t seed_;
  LayerTap* tap_;
  sim::EventLoop loop_;
  obs::Registry own_registry_;
  std::unique_ptr<Rack> rack_;
  Node server_;
  Node client_;
  stack::UdpSocket* client_sock_ = nullptr;
  int runs_ = 0;
  struct {
    double rate = 0;
    Nanos duration = 0;
    obs::Labels labels;
  } load_;
  bool load_done_ = true;
};

// Echo responder; the server runs several on one socket (one per worker).
Task<> EchoServer(stack::UdpSocket* sock, sim::EventLoop& loop,
                  sim::StopToken& stop) {
  while (!stop.stopped()) {
    auto d = co_await sock->Recv(loop.now() + 50 * kMicrosecond);
    if (d.ok()) {
      (void)co_await sock->SendTo(d->src_mac, d->src_port, d->payload);
    }
  }
}

Task<> UdpEcho::MakeNode(HostId host, stack::Placement buffers, Node* out) {
  core::VirtualNic::Config vc;
  vc.rings_in_cxl = false;  // Fig. 3: only the I/O buffers move to the pool
  vc.tx_entries = 1024;
  vc.rx_entries = 1024;
  vc.rx_doorbell_batch = 8;
  auto handle = co_await rack_->CreateVirtualNic(host, vc);
  CXLPOOL_CHECK_OK(handle.status());
  out->nic = std::move(*handle);
  auto pool = stack::BufferPool::Create(rack_->pod().host(host), buffers, 2048, 2048);
  CXLPOOL_CHECK_OK(pool.status());
  out->pool = std::move(*pool);
  stack::UdpStack::Config sc;
  sc.rx_buffers = 256;
  sc.worker_cores = 8;
  out->stack = std::make_unique<stack::UdpStack>(rack_->pod().host(host),
                                                 out->nic.vnic.get(), out->pool.get(),
                                                 out->nic.mac, sc);
  CXLPOOL_CHECK_OK(co_await out->stack->Start(rack_->stop_token()));
}

Task<> UdpEcho::Build() {
  co_await MakeNode(HostId(0), stack::Placement::kCxlPool, &server_);
  co_await MakeNode(HostId(1), stack::Placement::kLocalDram, &client_);
  auto srv = server_.stack->Bind(kEchoPort);
  CXLPOOL_CHECK_OK(srv.status());
  auto cli = client_.stack->Bind(kClientPort);
  CXLPOOL_CHECK_OK(cli.status());
  client_sock_ = *cli;
  for (int i = 0; i < 8; ++i) {
    sim::Spawn(EchoServer(*srv, loop_, rack_->stop_token()));
  }
}

void UdpEcho::Setup() {
  core::RackConfig rc;
  rc.pod.num_hosts = 2;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 48 * kMiB;
  rc.obs = tap_ != nullptr ? tap_->obs() : nullptr;
  rack_ = std::make_unique<Rack>(loop_, rc);
  rack_->Start();
  sim::RunBlocking(loop_, Build());
  StartLoad(kRate, kWarmup);
  (void)FinishLoad();
}

Task<> UdpEcho::LoadTask(stack::LoadGenConfig lg, obs::Labels labels) {
  co_await stack::RunUdpLoad(client_sock_, server_.stack->mac(), kEchoPort, lg,
                             registry(), std::move(labels));
  load_done_ = true;
}

Task<> UdpEcho::WaitLoad() {
  while (!load_done_) {
    co_await sim::Delay(loop_, 10 * kMicrosecond);
  }
}

void UdpEcho::StartLoad(double rate, Nanos duration) {
  const int run = runs_++;
  stack::LoadGenConfig lg;
  lg.offered_pps = rate;
  lg.payload_bytes = kPayload;
  lg.duration = duration;
  lg.warmup = 0;  // every run follows the set-up's warm-up run
  lg.seed = seed_ * 1000003 + static_cast<uint64_t>(run) * 7919;
  lg.senders = kSenders;
  load_ = {rate, duration, {{"run", std::to_string(run)}}};
  load_done_ = false;
  sim::Spawn(LoadTask(lg, load_.labels));
}

OpWindow UdpEcho::FinishLoad() {
  sim::RunBlocking(loop_, WaitLoad());
  const double rate = load_.rate;
  const Nanos duration = load_.duration;
  const obs::Labels& labels = load_.labels;
  const obs::Registry& reg = registry();
  uint64_t sent = reg.FindCounter("udp.sent", labels)->value();
  uint64_t received = reg.FindCounter("udp.received", labels)->value();
  uint64_t skipped = reg.FindCounter("udp.overload_skipped", labels)->value();
  OpWindow w;
  w.attempted = sent + skipped;
  w.failed = skipped + (sent > received ? sent - received : 0);
  // RunUdpLoad samples an echo only if it came back inside the window;
  // echoes received later are late, not served.
  w.latency.MergeFrom(*reg.FindHistogram("udp.rtt_ns", labels));
  w.served = w.latency.count();
  w.deadline = kEchoDeadline;
  w.span = duration;
  w.sent = sent;
  w.offered = rate * static_cast<double>(duration) / 1e9;
  return w;
}

void UdpEcho::Teardown(Checks& checks) {
  rack_->Shutdown();
  loop_.RunFor(500 * kMicrosecond);
  uint64_t lost = rack_->pod().TotalLostDirtyLines();
  AddCheck(checks, "pod.lost_dirty_lines", lost == 0,
           "udp_echo: " + std::to_string(lost) + " lines");
}

}  // namespace

std::unique_ptr<Scenario> MakeUdpEcho(uint64_t seed, LayerTap* tap) {
  return std::make_unique<UdpEcho>(seed, tap);
}

}  // namespace perfbench
