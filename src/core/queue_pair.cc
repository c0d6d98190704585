#include "src/core/queue_pair.h"

#include <algorithm>
#include <array>

#include "src/common/check.h"
#include "src/msg/wire.h"

namespace cxlpool::core {

using devices::kQpCmdSize;
using devices::kQpCplSize;
using msg::wire::GetU16;
using msg::wire::GetU64;
using msg::wire::PutU64;

namespace {
// Completion poll cadence: every 200 ns while commands complete, backing
// off to 4 us while idle.
constexpr Nanos kPollMin = 200;
constexpr Nanos kPollMax = 4 * kMicrosecond;
}  // namespace

QueuePairDriver::QueuePairDriver(cxl::HostAdapter& host,
                                 std::unique_ptr<MmioPath> mmio, Config config,
                                 PlacedMemory mem)
    : host_(host),
      mmio_(std::move(mmio)),
      config_(config),
      mem_(std::move(mem)),
      backoff_(kPollMin, kPollMax),
      sq_(mem_.base(), config.entries, kQpCmdSize),
      cq_base_(mem_.base() + static_cast<uint64_t>(config.entries) * kQpCmdSize) {}

sim::Task<Result<std::unique_ptr<QueuePairDriver>>> QueuePairDriver::Create(
    cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config) {
  CXLPOOL_CHECK(config.entries >= 2);
  uint64_t bytes = static_cast<uint64_t>(config.entries) * (kQpCmdSize + kQpCplSize);
  auto mem = PlacedMemory::Allocate(host, config.rings_in_cxl, bytes);
  if (!mem.ok()) {
    co_return mem.status();
  }
  auto driver = std::unique_ptr<QueuePairDriver>(
      new QueuePairDriver(host, std::move(mmio), config, std::move(*mem)));
  Status st = co_await driver->ProgramDevice();
  if (!st.ok()) {
    co_return st;
  }
  co_return std::move(driver);
}

sim::Task<Status> QueuePairDriver::ProgramDevice() {
  const std::array<std::byte, kQpCplSize> zeros{};
  for (uint32_t i = 0; i < config_.entries; ++i) {
    CO_RETURN_IF_ERROR(co_await mem_.Publish(cq_base_ + i * kQpCplSize, zeros));
  }
  uint64_t regs = config_.reg_base;
  CO_RETURN_IF_ERROR(co_await mmio_->Write(regs + devices::kQpRegReset, 1));
  CO_RETURN_IF_ERROR(
      co_await mmio_->Write(regs + devices::kQpRegSqBase, sq_.SlotAddr(0)));
  CO_RETURN_IF_ERROR(
      co_await mmio_->Write(regs + devices::kQpRegSqSize, config_.entries));
  CO_RETURN_IF_ERROR(co_await mmio_->Write(regs + devices::kQpRegCqBase, cq_base_));
  co_return OkStatus();
}

sim::Task<Result<bool>> QueuePairDriver::PollCqOnce() {
  uint64_t addr = cq_base_ + (cq_next_ % config_.entries) * kQpCplSize;
  std::array<std::byte, kQpCplSize> entry{};
  Status st = co_await mem_.ReadFresh(addr, entry);
  if (!st.ok()) {
    co_return st;
  }
  uint64_t seq = GetU64(entry.data());
  if (seq != cq_next_ + 1) {
    co_return false;
  }
  uint64_t cookie = GetU64(entry.data() + 8);
  uint16_t status = GetU16(entry.data() + 16);
  completed_[cookie] = status;
  ++cq_next_;
  CXLPOOL_CHECK(in_flight_ > 0);
  --in_flight_;
  co_return true;
}

sim::Task<Result<uint16_t>> QueuePairDriver::SubmitAndWait(
    devices::QueuePairDevice::Command& cmd, Nanos deadline) {
  // Flow control on the submission queue.
  while (in_flight_ >= config_.entries) {
    if (!polling_) {
      polling_ = true;
      auto got = co_await PollCqOnce();
      polling_ = false;
      if (!got.ok()) {
        co_return got.status();
      }
      if (*got) {
        continue;
      }
    }
    if (host_.loop().now() >= deadline) {
      co_return DeadlineExceeded("SQ full");
    }
    co_await sim::Delay(host_.loop(), backoff_.NextDelay());
  }

  uint64_t cookie = next_cookie_++;
  PutU64(cmd.data() + devices::kQpCookieOffset, cookie);
  // Root span for this command's life: publish, doorbell (possibly
  // forwarded — the context rides the RPC wire), completion poll.
  obs::Span op = obs::MaybeStartTrace(host_.tracer(), "qp.submit_wait",
                                      host_.id().value(), host_.loop().now());
  // Reserve the slot before suspending so concurrent submitters never
  // collide; the doorbell only covers the contiguous published prefix.
  uint64_t slot = sq_.Claim();
  uint64_t generation = sq_.generation();
  ++in_flight_;
  Status publish_st = co_await mem_.Publish(sq_.SlotAddr(slot), cmd);
  if (publish_st.ok() && generation != sq_.generation()) {
    publish_st = Aborted("queue pair rebound mid-submit");
  }
  if (!publish_st.ok()) {
    op.End(host_.loop().now());
    co_return publish_st;
  }
  if (uint64_t value = sq_.Published(slot); value != 0) {
    if (mem_.sw_coherence()) {
      // Ownership transfer: the doorbell hands the published SQ prefix to
      // the device, which will DMA-read it from the pool. Any dirty cached
      // command bytes at this instant would be invisible to the device.
      host_.NoteHandoff(mem_.base(), static_cast<uint64_t>(config_.entries) * kQpCmdSize,
                        "sq-doorbell");
    }
    // The doorbell inherits the command's absolute deadline: if it expires
    // in a queue along the forwarded path, every hop sheds it instead of
    // ringing a bell whose command the submitter has already given up on.
    Status bell_st = co_await mmio_->Write(config_.reg_base + devices::kQpRegSqDoorbell,
                                           value, op.context(), deadline);
    if (!bell_st.ok()) {
      op.End(host_.loop().now());
      co_return bell_st;
    }
  }

  for (;;) {
    auto it = completed_.find(cookie);
    if (it != completed_.end()) {
      uint16_t status = it->second;
      completed_.erase(it);
      backoff_.Reset();
      op.End(host_.loop().now());
      co_return status;
    }
    if (host_.loop().now() >= deadline) {
      op.End(host_.loop().now());
      co_return DeadlineExceeded("command timed out");
    }
    if (!polling_) {
      polling_ = true;
      auto got = co_await PollCqOnce();
      polling_ = false;
      if (!got.ok()) {
        op.End(host_.loop().now());
        co_return got.status();
      }
      if (*got) {
        continue;  // something completed; re-check the map
      }
    }
    co_await sim::Delay(host_.loop(),
                        std::min(backoff_.NextDelay(), deadline - host_.loop().now()));
  }
}

sim::Task<Status> QueuePairDriver::Rebind(std::unique_ptr<MmioPath> mmio) {
  mmio_ = std::move(mmio);
  sq_.Reset();  // in-flight SubmitAndWait publishes abort cleanly
  cq_next_ = 0;
  in_flight_ = 0;
  completed_.clear();
  co_return co_await ProgramDevice();
}

}  // namespace cxlpool::core
