// mmio_fwd: the paper's control path. A register device hangs off host 0;
// on host 2, producer coroutines share one pipelined forwarded MmioPath and
// drive it closed loop: each producer owns one register and issues doorbell
// writes beside register reads, back to back. Every op crosses the
// shared-memory ring (nt-store publish, invalidate-and-load consume), the
// RpcClient and the home Agent; no KV, stack, SSD or DMA work is on the
// path.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/sim/harness.h"
#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace perfbench {
namespace {

using namespace cxlpool;
using core::Rack;
using sim::Task;

constexpr PcieDeviceId kDevice(99);
constexpr int kHome = 0;
constexpr int kClient = 2;
constexpr int kProducers = 8;
constexpr uint32_t kMaxInflight = 8;       // the pipelined client
// The op mix follows bench/mmio_forwarding, which times as many forwarded
// writes as reads (2000 each) and runs its producers back to back. The
// SSD queue pairs and the virtual NIC forward only doorbell writes, so
// they cannot set the read share. Each op is a write with this
// probability, drawn from the producer's seeded stream, so the seed
// reaches the op sequence.
constexpr double kWriteFraction = 0.5;
constexpr Nanos kWindow = 12 * kMillisecond;  // ~20k ops
constexpr Nanos kWarmup = 2 * kMillisecond;
constexpr Nanos kRung = 6 * kMillisecond;     // >= 1000 ops even at 1 producer
constexpr Nanos kOpDeadline = 200 * kMicrosecond;
constexpr int kRegisters = 64;

// A device with plain registers: writes store, reads return the last write.
class RegisterDevice : public pcie::PcieDevice {
 public:
  RegisterDevice(PcieDeviceId id, sim::EventLoop& loop)
      : PcieDevice(id, "regs", loop, cxl::LinkSpec{}, pcie::PcieTiming{}) {}

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override {
    regs_[reg % kRegisters] = value;
  }
  uint64_t OnMmioRead(uint64_t reg) override { return regs_[reg % kRegisters]; }

 private:
  uint64_t regs_[kRegisters] = {};
};

struct Producer {
  sim::Rng rng{1};
  uint64_t next_value = 0;
  uint64_t last_write = 0;      // last value acknowledged as written
  bool write_unknown = false;   // a write failed; its effect is unknown
};

class MmioFwd : public Scenario {
 public:
  MmioFwd(uint64_t seed, LayerTap* tap) : seed_(seed), tap_(tap) {}

  void Setup() override;
  Nanos window() const override { return kWindow; }
  void StartMeasured(int windows) override { StartDrive(kProducers, windows * kWindow); }
  OpWindow FinishMeasured() override { return FinishDrive(); }
  void CheckOutputs(Checks& checks, bool full) override;
  OpWindow RunRung(double x) override {
    StartDrive(static_cast<int>(x + 0.5), kRung);
    return FinishDrive();
  }
  // The knob is the producer count; each adds queueing on the one path.
  SloSearch search() const override {
    return {.lo = 1, .hi = kRegisters, .resolution = 1,
            .p99_slo = 10 * kMicrosecond, .open_loop = false};
  }
  void EmitLayers(Metrics&, const OpWindow&) override {}
  void Teardown(Checks& checks) override;
  sim::EventLoop& loop() override { return loop_; }
  Rack& rack() override { return *rack_; }

 private:
  // `n` producers issue ops closed loop for `duration`; Finish waits for
  // their last ops.
  void StartDrive(int n, Nanos duration);
  OpWindow FinishDrive();
  Task<> Produce(int index);
  Task<> Join();
  Task<> ReadBack(Checks* checks);

  uint64_t seed_;
  LayerTap* tap_;
  sim::EventLoop loop_;
  std::unique_ptr<Rack> rack_;
  std::unique_ptr<RegisterDevice> device_;
  std::unique_ptr<core::MmioPath> path_;
  std::vector<Producer> producers_;
  OpWindow drive_;
  Nanos drive_until_ = 0;
  int running_ = 0;
  uint64_t read_mismatches_ = 0;
};

void MmioFwd::Setup() {
  core::RackConfig rc;
  rc.pod.num_hosts = 3;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 16 * kMiB;
  rc.pod.dram_per_host = 4 * kMiB;
  rc.obs = tap_ != nullptr ? tap_->obs() : nullptr;
  rack_ = std::make_unique<Rack>(loop_, rc);
  device_ = std::make_unique<RegisterDevice>(kDevice, loop_);
  device_->AttachTo(&rack_->pod().host(kHome));
  rack_->orchestrator().RegisterDevice(HostId(kHome), device_.get(),
                                       core::DeviceType::kAccel);
  rack_->Start();
  msg::RpcClient::Options copt;
  copt.max_inflight = kMaxInflight;
  auto path = rack_->orchestrator().MakeMmioPath(HostId(kClient), kDevice, copt);
  CXLPOOL_CHECK_OK(path.status());
  CXLPOOL_CHECK((*path)->is_remote());
  path_ = std::move(*path);
  // Each producer's op sequence comes from the run's seed.
  sim::Rng seeder(seed_ * 1000003 + 17);
  for (int i = 0; i < kRegisters; ++i) {
    Producer p;
    p.rng = sim::Rng(seeder.NextU64());
    producers_.push_back(p);
  }
  StartDrive(kProducers, kWarmup);
  (void)FinishDrive();
}

Task<> MmioFwd::Produce(int index) {
  Producer& p = producers_[static_cast<size_t>(index)];
  OpWindow* w = &drive_;
  const uint64_t reg = static_cast<uint64_t>(index);
  while (loop_.now() < drive_until_) {
    Nanos start = loop_.now();
    bool ok = false;
    if (p.rng.Bernoulli(kWriteFraction)) {
      uint64_t value = (static_cast<uint64_t>(index) << 48) | ++p.next_value;
      Status st = co_await path_->Write(reg, value, {}, start + kOpDeadline);
      ok = st.ok();
      if (ok) {
        p.last_write = value;
        p.write_unknown = false;
      } else {
        p.write_unknown = true;
      }
    } else {
      auto v = co_await path_->Read(reg, {}, start + kOpDeadline);
      ok = v.ok();
      // A producer is the only writer of its register.
      read_mismatches_ += ok && !p.write_unknown && *v != p.last_write ? 1 : 0;
    }
    ++w->attempted;
    ++w->sent;
    if (ok) {
      ++w->served;
      w->latency.Add(loop_.now() - start);
    } else {
      ++w->failed;
    }
  }
  --running_;
}

Task<> MmioFwd::Join() {
  while (running_ > 0) {
    co_await sim::Delay(loop_, kMicrosecond);
  }
}

void MmioFwd::StartDrive(int n, Nanos duration) {
  CXLPOOL_CHECK(n >= 1 && n <= kRegisters);
  drive_ = OpWindow{};
  drive_.deadline = kOpDeadline;
  drive_.span = duration;
  drive_until_ = loop_.now() + duration;
  running_ = n;
  for (int i = 0; i < n; ++i) {
    sim::Spawn(Produce(i));
  }
}

OpWindow MmioFwd::FinishDrive() {
  sim::RunBlocking(loop_, Join());
  return drive_;
}

Task<> MmioFwd::ReadBack(Checks* checks) {
  uint64_t mismatches = 0;
  uint64_t checked = 0;
  for (size_t i = 0; i < producers_.size(); ++i) {
    const Producer& p = producers_[i];
    if (p.next_value == 0 || p.write_unknown) {
      continue;
    }
    auto v = co_await path_->Read(i, {}, loop_.now() + kOpDeadline);
    ++checked;
    mismatches += v.ok() && *v == p.last_write ? 0 : 1;
  }
  AddCheck(*checks, "mmio.register_readback", checked > 0 && mismatches == 0,
           std::to_string(checked) + " registers read back, " +
               std::to_string(mismatches) + " differ from the last write");
}

void MmioFwd::CheckOutputs(Checks& checks, bool) {
  AddCheck(checks, "mmio.reads_see_last_write", read_mismatches_ == 0,
           std::to_string(read_mismatches_) + " reads differ from the last write");
  sim::RunBlocking(loop_, ReadBack(&checks));
}

void MmioFwd::Teardown(Checks& checks) {
  rack_->Shutdown();
  loop_.RunFor(500 * kMicrosecond);
  uint64_t lost = rack_->pod().TotalLostDirtyLines();
  AddCheck(checks, "pod.lost_dirty_lines", lost == 0,
           "mmio_fwd: " + std::to_string(lost) + " lines");
}

}  // namespace

std::unique_ptr<Scenario> MakeMmioFwd(uint64_t seed, LayerTap* tap) {
  return std::make_unique<MmioFwd>(seed, tap);
}

}  // namespace perfbench
