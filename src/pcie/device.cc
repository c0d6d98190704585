#include "src/pcie/device.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace cxlpool::pcie {

PcieDevice::PcieDevice(PcieDeviceId id, std::string name, sim::EventLoop& loop,
                       cxl::LinkSpec link, PcieTiming timing)
    : id_(id),
      name_(std::move(name)),
      loop_(loop),
      link_(link),
      timing_(timing),
      to_host_(link.BytesPerNanos()),
      from_host_(link.BytesPerNanos()) {}

PcieDevice::~PcieDevice() {
  if (destroy_listener_ != nullptr) {
    auto listener = std::move(destroy_listener_);
    destroy_listener_ = nullptr;
    listener(this);
  }
}

void PcieDevice::AttachTo(cxl::HostAdapter* host) {
  CXLPOOL_CHECK(host != nullptr);
  CXLPOOL_CHECK(host_ == nullptr);
  host_ = host;
  ++generation_;
  metrics_.emplace(host->metrics().registry(),
                   obs::Labels{{"device", std::to_string(id_.value())}});
  wedges_ = metrics_->GetCounter("pcie.wedges");
  dropped_mmio_writes_ = metrics_->GetCounter("pcie.dropped_mmio_writes");
  stalled_ops_ = metrics_->GetCounter("pcie.stalled_ops");
  resets_ = metrics_->GetCounter("pcie.resets");
  dma_reads_ = metrics_->GetCounter("pcie.dma_reads");
  dma_read_bytes_ = metrics_->GetCounter("pcie.dma_read_bytes");
  dma_writes_ = metrics_->GetCounter("pcie.dma_writes");
  dma_write_bytes_ = metrics_->GetCounter("pcie.dma_write_bytes");
  // A device dies with its host (the root complex is gone) and comes back
  // with it — unless it was already failed independently, in which case the
  // host reboot does not magically fix it.
  host->AddCrashListener(this, [this](bool crashed) {
    if (crashed) {
      if (!failed_) {
        InjectFailure();
        failed_by_host_crash_ = true;
      }
    } else if (failed_by_host_crash_) {
      failed_by_host_crash_ = false;
      Repair();
    }
  });
  OnAttach();
}

void PcieDevice::Detach() {
  if (host_ == nullptr) {
    return;
  }
  OnDetach();
  host_->RemoveCrashListener(this);
  host_ = nullptr;
  ++generation_;
}

void PcieDevice::InjectFailure() {
  if (failed_) {
    return;
  }
  failed_ = true;
  ++generation_;
  OnFailure();
}

void PcieDevice::Repair() {
  failed_ = false;
  ++generation_;
  // A repaired fail-stop device is a replaced or power-cycled card: it comes
  // back with clean BAR/queue state and fresh engine coroutines, exactly like
  // a function-level reset. Without this, engines that exited on the failure
  // generation bump would never respawn and the device would stay silent.
  OnReset();
}

void PcieDevice::Wedge() {
  if (wedged_ || failed_) {
    return;
  }
  // No generation bump: the device is hung, not re-bound. Engine coroutines
  // keep running and experience the stalls, exactly like real firmware hangs.
  wedged_ = true;
  ++untaken_wedges_;
  wedges_->Inc();
}

void PcieDevice::Reset() {
  resets_->Inc();
  wedged_ = false;
  // The generation bump is the drain: every in-flight engine coroutine
  // compares its captured generation and exits at its next loop head.
  ++generation_;
  OnReset();
}

sim::Task<Status> PcieDevice::MmioWrite(uint64_t reg, uint64_t value) {
  if (host_ == nullptr) {
    co_return FailedPrecondition("device not attached");
  }
  if (failed_) {
    co_return Unavailable("device " + name_ + " failed");
  }
  Nanos extra = interposer_ ? interposer_->MmioExtraLatency(/*is_read=*/false) : 0;
  // Posted semantics: the device sees the write after the PCIe latency;
  // the CPU continues as soon as its write buffer drains. The write waits
  // in a slab slot, so the delivery event carries only the slot index and
  // fits std::function's inline buffer.
  uint32_t slot;
  if (free_mmio_slots_.empty()) {
    slot = static_cast<uint32_t>(posted_mmio_.size());
    posted_mmio_.push_back({reg, value});
  } else {
    slot = free_mmio_slots_.back();
    free_mmio_slots_.pop_back();
    posted_mmio_[slot] = {reg, value};
  }
  loop_.Schedule(timing_.mmio_write + extra, [this, slot] { DeliverMmioWrite(slot); });
  co_await sim::Delay(loop_, timing_.mmio_post_cpu);
  co_return OkStatus();
}

void PcieDevice::DeliverMmioWrite(uint32_t slot) {
  auto [reg, value] = posted_mmio_[slot];
  free_mmio_slots_.push_back(slot);
  if (host_ == nullptr || failed_) {
    return;
  }
  // A wedged device absorbs the write without acting on it — the CPU
  // cannot tell, which is what makes wedges gray.
  if (wedged_) {
    dropped_mmio_writes_->Inc();
    return;
  }
  OnMmioWrite(reg, value);
}

sim::Task<Result<uint64_t>> PcieDevice::MmioRead(uint64_t reg) {
  if (host_ == nullptr) {
    co_return FailedPrecondition("device not attached");
  }
  if (failed_) {
    co_return Unavailable("device " + name_ + " failed");
  }
  if (wedged_) {
    stalled_ops_->Inc();
    co_await sim::Delay(loop_, timing_.wedge_stall);
    co_return DeadlineExceeded("MMIO read to wedged device " + name_);
  }
  Nanos extra = interposer_ ? interposer_->MmioExtraLatency(/*is_read=*/true) : 0;
  co_await sim::Delay(loop_, timing_.mmio_read + extra);
  if (wedged_) {
    // Wedged mid-flight: the completion never arrives.
    stalled_ops_->Inc();
    co_await sim::Delay(loop_, timing_.wedge_stall);
    co_return DeadlineExceeded("MMIO read lost in wedged device " + name_);
  }
  co_return OnMmioRead(reg);
}

sim::Task<Status> PcieDevice::DmaRead(uint64_t addr, std::span<std::byte> out) {
  if (host_ == nullptr) {
    co_return FailedPrecondition("device not attached");
  }
  if (failed_) {
    co_return Unavailable("device " + name_ + " failed");
  }
  if (wedged_) {
    stalled_ops_->Inc();
    co_await sim::Delay(loop_, timing_.wedge_stall);
    co_return DeadlineExceeded("DMA read on wedged device " + name_);
  }
  dma_reads_->Inc();
  dma_read_bytes_->Add(out.size());
  Nanos start = loop_.now();
  // Memory-side access (local DRAM or CXL pool; coherent with the attached
  // host's cache via root-complex snoop).
  CO_RETURN_IF_ERROR(co_await host_->DmaRead(addr, out));
  // Device-link serialization overlaps the memory fetch pipeline; total
  // completion is the max plus fixed per-op overhead.
  Nanos link_done = from_host_.Acquire(start, out.size());
  Nanos done = std::max(loop_.now(), link_done) + timing_.dma_overhead;
  if (interposer_ != nullptr) {
    done = std::max(done, interposer_->ChargeDma(start, out.size()));
    done += interposer_->DmaExtraLatency();
  }
  co_await sim::WaitUntil(loop_, done);
  co_return OkStatus();
}

sim::Task<Status> PcieDevice::DmaWrite(uint64_t addr, std::span<const std::byte> in) {
  if (host_ == nullptr) {
    co_return FailedPrecondition("device not attached");
  }
  if (failed_) {
    co_return Unavailable("device " + name_ + " failed");
  }
  if (wedged_) {
    stalled_ops_->Inc();
    co_await sim::Delay(loop_, timing_.wedge_stall);
    co_return DeadlineExceeded("DMA write on wedged device " + name_);
  }
  dma_writes_->Inc();
  dma_write_bytes_->Add(in.size());
  Nanos start = loop_.now();
  CO_RETURN_IF_ERROR(co_await host_->DmaWrite(addr, in));
  Nanos link_done = to_host_.Acquire(start, in.size());
  Nanos done = std::max(loop_.now(), link_done) + timing_.dma_overhead;
  if (interposer_ != nullptr) {
    done = std::max(done, interposer_->ChargeDma(start, in.size()));
    done += interposer_->DmaExtraLatency();
  }
  co_await sim::WaitUntil(loop_, done);
  co_return OkStatus();
}

}  // namespace cxlpool::pcie
