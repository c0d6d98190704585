#include "src/core/virtual_nic.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/msg/wire.h"

namespace cxlpool::core {

using msg::wire::GetU32;
using msg::wire::GetU64;
using msg::wire::PutU32;
using msg::wire::PutU64;

namespace {
uint64_t Layout(uint32_t tx_entries, uint32_t rx_entries) {
  return static_cast<uint64_t>(tx_entries) * devices::kNicTxDescSize + kCachelineSize +
         static_cast<uint64_t>(rx_entries) * devices::kNicRxDescSize +
         static_cast<uint64_t>(rx_entries) * devices::kNicRxCplSize;
}
}  // namespace

VirtualNic::VirtualNic(cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio,
                       Config config)
    : host_(host),
      mmio_(std::move(mmio)),
      config_(config),
      mem_(host, config.rings_in_cxl),
      rx_shadow_(config.rx_entries, 0),
      rx_doorbell_([this](uint64_t value) { return RxDoorbellWrite(value); },
                   config.rx_doorbell_batch,
                   host.metrics().With({{"doorbell", "vnic_rx"}})) {}

VirtualNic::~VirtualNic() {
  if (owns_segment_) {
    (void)host_.cxl_pool().Free(segment_);
  }
}

void VirtualNic::ComputeLayout(uint64_t base) {
  tx_ring_ = base;
  tx_cpl_ = tx_ring_ + static_cast<uint64_t>(config_.tx_entries) * devices::kNicTxDescSize;
  rx_ring_ = tx_cpl_ + kCachelineSize;
  rx_cpl_ = rx_ring_ + static_cast<uint64_t>(config_.rx_entries) * devices::kNicRxDescSize;
}

sim::Task<Result<std::unique_ptr<VirtualNic>>> VirtualNic::Create(
    cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config) {
  CXLPOOL_CHECK(config.tx_entries >= 2 && config.rx_entries >= 2);
  auto vnic = std::unique_ptr<VirtualNic>(
      new VirtualNic(host, std::move(mmio), config));

  uint64_t bytes = Layout(config.tx_entries, config.rx_entries);
  uint64_t base = 0;
  if (config.rings_in_cxl) {
    auto seg = host.cxl_pool().Allocate(bytes);
    if (!seg.ok()) {
      co_return seg.status();
    }
    vnic->segment_ = *seg;
    vnic->owns_segment_ = true;
    base = seg->base;
  } else {
    auto addr = host.AllocateDram(bytes);
    if (!addr.ok()) {
      co_return addr.status();
    }
    base = *addr;
  }
  vnic->ComputeLayout(base);

  Status st = co_await vnic->ProgramDevice();
  if (!st.ok()) {
    co_return st;
  }
  co_return std::move(vnic);
}

sim::Task<Status> VirtualNic::ProgramDevice() {
  // Zero the completion structures so stale sequence numbers from an
  // earlier binding can never be mistaken for fresh completions.
  // The TX completion line first, then every RX completion entry.
  std::vector<std::byte> zeros(kCachelineSize, std::byte{0});
  for (uint32_t i = 0; i <= config_.rx_entries; ++i) {
    uint64_t addr = i == 0 ? tx_cpl_ : rx_cpl_ + (i - 1) * devices::kNicRxCplSize;
    CO_RETURN_IF_ERROR(co_await mem_.Publish(addr, zeros));
  }

  CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegReset, 1));
  CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegTxRingBase, tx_ring_));
  CO_RETURN_IF_ERROR(
      co_await mmio_->Write(devices::kNicRegTxRingSize, config_.tx_entries));
  CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegTxCplAddr, tx_cpl_));
  CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegRxRingBase, rx_ring_));
  CO_RETURN_IF_ERROR(
      co_await mmio_->Write(devices::kNicRegRxRingSize, config_.rx_entries));
  CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegRxCplBase, rx_cpl_));
  doorbell_writes_->Add(7);
  co_return OkStatus();
}

sim::Task<Status> VirtualNic::SendFrame(netsim::MacAddr dst, uint64_t buf_addr,
                                        uint32_t len) {
  // Flow control against the TX ring (counting reserved-but-unpublished
  // slots so concurrent senders cannot oversubscribe it).
  while (tx_posted_ - tx_completed_cache_ >= config_.tx_entries) {
    tx_stalls_->Inc();
    auto done = co_await TxCompleted();
    if (!done.ok()) {
      co_return done.status();
    }
    if (tx_posted_ - *done >= config_.tx_entries) {
      co_await sim::Delay(host_.loop(), tx_backoff_.NextDelay());
    } else {
      tx_backoff_.Reset();
    }
  }

  // Reserve the slot before the first suspension point: concurrent
  // SendFrame calls (multi-core stacks) each get a distinct descriptor.
  uint64_t slot = tx_posted_++;
  uint64_t generation = rebind_generation_;
  tx_posted_count_->Inc();

  std::array<std::byte, devices::kNicTxDescSize> desc{};
  PutU64(desc.data(), buf_addr);
  PutU32(desc.data() + 8, len);
  PutU32(desc.data() + 12, 0);  // flags
  PutU64(desc.data() + 16, dst);

  uint64_t addr = tx_ring_ + (slot % config_.tx_entries) * devices::kNicTxDescSize;
  CO_RETURN_IF_ERROR(co_await mem_.Publish(addr, desc));
  if (generation != rebind_generation_) {
    co_return Aborted("NIC rebound mid-send");
  }

  // The doorbell may only cover a contiguous prefix of published slots:
  // a later slot can finish publishing before an earlier one.
  tx_published_.insert(slot);
  while (tx_published_.contains(tx_ready_)) {
    tx_published_.erase(tx_ready_);
    ++tx_ready_;
  }
  if (tx_ready_ > tx_doorbell_sent_) {
    uint64_t value = tx_ready_;
    CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegTxDoorbell, value));
    doorbell_writes_->Inc();
    if (generation == rebind_generation_ && value > tx_doorbell_sent_) {
      tx_doorbell_sent_ = value;
    }
  }
  co_return OkStatus();
}

sim::Task<Result<uint64_t>> VirtualNic::TxCompleted() {
  std::array<std::byte, 8> buf;
  Status st = co_await mem_.ReadFresh(tx_cpl_, buf);
  if (!st.ok()) {
    co_return st;
  }
  tx_completed_cache_ = GetU64(buf.data());
  co_return tx_completed_cache_;
}

sim::Task<Status> VirtualNic::PostRxBuffer(uint64_t buf_addr, uint32_t buf_len) {
  if (rx_posted_ - rx_cpl_next_ >= config_.rx_entries) {
    co_return ResourceExhausted("RX ring full");
  }
  uint32_t idx = static_cast<uint32_t>(rx_posted_ % config_.rx_entries);
  std::array<std::byte, devices::kNicRxDescSize> desc{};
  PutU64(desc.data(), buf_addr);
  PutU32(desc.data() + 8, buf_len);
  uint64_t addr = rx_ring_ + idx * devices::kNicRxDescSize;
  CO_RETURN_IF_ERROR(co_await mem_.Publish(addr, desc));
  rx_shadow_[idx] = buf_addr;
  ++rx_posted_;
  rx_posted_count_->Inc();
  co_return co_await rx_doorbell_.Offer(rx_posted_);
}

sim::Task<Status> VirtualNic::FlushRxDoorbell() {
  co_return co_await rx_doorbell_.Flush();
}

sim::Task<Status> VirtualNic::RxDoorbellWrite(uint64_t value) {
  CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegRxDoorbell, value));
  doorbell_writes_->Inc();
  co_return OkStatus();
}

sim::Task<Result<VirtualNic::RxEvent>> VirtualNic::PollRx(Nanos deadline) {
  for (;;) {
    uint64_t addr =
        rx_cpl_ + (rx_cpl_next_ % config_.rx_entries) * devices::kNicRxCplSize;
    std::array<std::byte, devices::kNicRxCplSize> entry;
    Status st = co_await mem_.ReadFresh(addr, entry);
    if (!st.ok()) {
      co_return st;
    }
    uint64_t seq = GetU64(entry.data());
    if (seq == rx_cpl_next_ + 1) {
      rx_backoff_.Reset();
      RxEvent ev;
      ev.desc_idx = GetU32(entry.data() + 8);
      ev.len = GetU32(entry.data() + 12);
      ev.buf_addr = rx_shadow_[ev.desc_idx % config_.rx_entries];
      ++rx_cpl_next_;
      rx_events_->Inc();
      co_return ev;
    }
    Nanos now = host_.loop().now();
    if (now >= deadline) {
      co_return DeadlineExceeded("no RX completion before deadline");
    }
    co_await sim::Delay(host_.loop(),
                        std::min(rx_backoff_.NextDelay(), deadline - now));
  }
}

sim::Task<Status> VirtualNic::Rebind(std::unique_ptr<MmioPath> mmio) {
  mmio_ = std::move(mmio);
  ++rebind_generation_;  // in-flight SendFrame calls abort cleanly
  tx_posted_ = 0;
  tx_ready_ = 0;
  tx_doorbell_sent_ = 0;
  tx_published_.clear();
  tx_completed_cache_ = 0;
  rx_posted_ = 0;
  rx_doorbell_.Reset();  // the replacement NIC's doorbell state restarted
  rx_cpl_next_ = 0;
  std::fill(rx_shadow_.begin(), rx_shadow_.end(), 0);
  co_return co_await ProgramDevice();
}

}  // namespace cxlpool::core
