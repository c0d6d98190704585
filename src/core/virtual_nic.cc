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
uint64_t TxCplOffset(const VirtualNic::Config& c) {
  return static_cast<uint64_t>(c.tx_entries) * devices::kNicTxDescSize;
}
uint64_t RxCplOffset(const VirtualNic::Config& c) {
  return TxCplOffset(c) + kCachelineSize +
         static_cast<uint64_t>(c.rx_entries) * devices::kNicRxDescSize;
}
}  // namespace

VirtualNic::VirtualNic(cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio,
                       Config config, PlacedMemory mem)
    : host_(host),
      mmio_(std::move(mmio)),
      config_(config),
      mem_(std::move(mem)),
      tx_(mem_.base(), config.tx_entries, devices::kNicTxDescSize),
      tx_cpl_(mem_.base() + TxCplOffset(config)),
      rx_(tx_cpl_ + kCachelineSize, config.rx_entries, devices::kNicRxDescSize),
      rx_cpl_(mem_.base() + RxCplOffset(config)),
      rx_shadow_(config.rx_entries, 0) {}

sim::Task<Result<std::unique_ptr<VirtualNic>>> VirtualNic::Create(
    cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config) {
  CXLPOOL_CHECK(config.tx_entries >= 2 && config.rx_entries >= 2);
  uint64_t bytes = RxCplOffset(config) +
                   static_cast<uint64_t>(config.rx_entries) * devices::kNicRxCplSize;
  auto mem = PlacedMemory::Allocate(host, config.rings_in_cxl, bytes);
  if (!mem.ok()) {
    co_return mem.status();
  }
  auto vnic = std::unique_ptr<VirtualNic>(
      new VirtualNic(host, std::move(mmio), config, std::move(*mem)));
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
  CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegTxRingBase, tx_.SlotAddr(0)));
  CO_RETURN_IF_ERROR(
      co_await mmio_->Write(devices::kNicRegTxRingSize, config_.tx_entries));
  CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegTxCplAddr, tx_cpl_));
  CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegRxRingBase, rx_.SlotAddr(0)));
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
  while (tx_.posted() - tx_completed_cache_ >= config_.tx_entries) {
    tx_stalls_->Inc();
    auto done = co_await TxCompleted();
    if (!done.ok()) {
      co_return done.status();
    }
    if (tx_.posted() - *done >= config_.tx_entries) {
      co_await sim::Delay(host_.loop(), tx_backoff_.NextDelay());
    } else {
      tx_backoff_.Reset();
    }
  }

  // Reserve the slot before the first suspension point: concurrent
  // SendFrame calls (multi-core stacks) each get a distinct descriptor.
  uint64_t slot = tx_.Claim();
  uint64_t generation = tx_.generation();
  tx_posted_count_->Inc();

  std::array<std::byte, devices::kNicTxDescSize> desc{};
  PutU64(desc.data(), buf_addr);
  PutU32(desc.data() + 8, len);
  PutU32(desc.data() + 12, 0);  // flags
  PutU64(desc.data() + 16, dst);

  CO_RETURN_IF_ERROR(co_await mem_.Publish(tx_.SlotAddr(slot), desc));
  if (generation != tx_.generation()) {
    co_return Aborted("NIC rebound mid-send");
  }
  if (uint64_t value = tx_.Published(slot); value != 0) {
    CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegTxDoorbell, value));
    doorbell_writes_->Inc();
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
  if (rx_.posted() - rx_cpl_next_ >= config_.rx_entries) {
    co_return ResourceExhausted("RX ring full");
  }
  // Claim before the first suspension so concurrent posts get distinct
  // slots.
  uint64_t slot = rx_.Claim();
  uint64_t generation = rx_.generation();
  std::array<std::byte, devices::kNicRxDescSize> desc{};
  PutU64(desc.data(), buf_addr);
  PutU32(desc.data() + 8, buf_len);
  CO_RETURN_IF_ERROR(co_await mem_.Publish(rx_.SlotAddr(slot), desc));
  if (generation != rx_.generation()) {
    co_return Aborted("NIC rebound mid-post");
  }
  rx_shadow_[slot % config_.rx_entries] = buf_addr;
  rx_posted_count_->Inc();
  if (uint64_t value = rx_.Published(slot, config_.rx_doorbell_batch); value != 0) {
    CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegRxDoorbell, value));
    doorbell_writes_->Inc();
  }
  co_return OkStatus();
}

sim::Task<Status> VirtualNic::FlushRxDoorbell() {
  if (uint64_t value = rx_.TakeUnannounced(); value != 0) {
    CO_RETURN_IF_ERROR(co_await mmio_->Write(devices::kNicRegRxDoorbell, value));
    doorbell_writes_->Inc();
  }
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
  // In-flight SendFrame and PostRxBuffer calls abort cleanly.
  tx_.Reset();
  rx_.Reset();
  tx_completed_cache_ = 0;
  rx_cpl_next_ = 0;
  std::fill(rx_shadow_.begin(), rx_shadow_.end(), 0);
  co_return co_await ProgramDevice();
}

}  // namespace cxlpool::core
