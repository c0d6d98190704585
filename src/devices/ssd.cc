#include "src/devices/ssd.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.h"
#include "src/msg/wire.h"

namespace cxlpool::devices {

using msg::wire::GetU32;
using msg::wire::GetU64;
using msg::wire::PutU16;
using msg::wire::PutU64;

Ssd::Ssd(PcieDeviceId id, std::string name, sim::EventLoop& loop, SsdConfig config)
    : pcie::PcieDevice(id, std::move(name), loop, config.pcie_link,
                       config.pcie_timing),
      config_(config),
      media_(config.capacity_bytes),
      rng_(config.seed),
      channels_(std::make_unique<sim::Semaphore>(loop, config.channels)),
      kick_(loop) {}

double Ssd::ChannelUtilization() const {
  Nanos now = const_cast<Ssd*>(this)->loop().now();
  return windowed_util_.Update(now, busy_ns_, static_cast<double>(config_.channels));
}

void Ssd::OnMmioWrite(uint64_t reg, uint64_t value) {
  switch (reg) {
    case kSsdRegReset:
      sq_tail_ = sq_head_ = 0;
      completions_ = 0;
      break;
    case kSsdRegSqBase:
      sq_base_ = value;
      break;
    case kSsdRegSqSize:
      sq_size_ = value;
      break;
    case kSsdRegSqDoorbell:
      if (value > sq_tail_) {
        sq_tail_ = value;
        kick_.Set();
      }
      break;
    case kSsdRegCqBase:
      cq_base_ = value;
      break;
    default:
      break;
  }
}

uint64_t Ssd::OnMmioRead(uint64_t reg) {
  switch (reg) {
    case kSsdRegCapacity:
      return media_.size();
    case kSsdRegSqDoorbell:
      return sq_tail_;
    default:
      return 0;
  }
}

void Ssd::OnAttach() {
  reads_ = metrics().GetCounter("ssd.reads");
  writes_ = metrics().GetCounter("ssd.writes");
  read_bytes_ = metrics().GetCounter("ssd.read_bytes");
  write_bytes_ = metrics().GetCounter("ssd.write_bytes");
  errors_ = metrics().GetCounter("ssd.errors");
  sim::Spawn(Engine(generation()));
}
void Ssd::OnDetach() { kick_.Set(); }
void Ssd::OnFailure() { kick_.Set(); }

void Ssd::OnReset() {
  // Wake the old engine so it observes the generation bump and exits.
  kick_.Set();
  // Queue state comes up clean, as after a real FLR; the driver must
  // reprogram SQ/CQ bases before the device executes commands again.
  sq_base_ = sq_size_ = sq_tail_ = sq_head_ = 0;
  cq_base_ = 0;
  completions_ = 0;
  if (attached()) {
    sim::Spawn(Engine(generation()));
  }
}

sim::Task<> Ssd::Engine(uint64_t my_generation) {
  while (generation() == my_generation) {
    if (sq_head_ >= sq_tail_ || sq_size_ == 0) {
      co_await kick_.Wait();
      kick_.Reset();
      continue;
    }
    uint64_t idx = sq_head_ % sq_size_;
    std::array<std::byte, kSsdCmdSize> cmd;
    Status st = co_await DmaRead(sq_base_ + idx * kSsdCmdSize, cmd);
    if (!st.ok()) {
      co_return;
    }
    ++sq_head_;
    // Commands execute concurrently up to the channel count; completions
    // may be written out of order (as on real NVMe).
    sim::Spawn(ExecuteCommand(cmd));
  }
}

sim::Task<> Ssd::ExecuteCommand(std::array<std::byte, kSsdCmdSize> cmd) {
  // Command layout: opcode u8 | pad[7] | lba u64 | nsectors u32 | pad u32 |
  //                 buf_addr u64 | cookie u64
  uint8_t opcode = static_cast<uint8_t>(cmd[0]);
  uint64_t lba = GetU64(cmd.data() + 8);
  uint32_t nsectors = GetU32(cmd.data() + 16);
  uint64_t buf_addr = GetU64(cmd.data() + 24);
  uint64_t cookie = GetU64(cmd.data() + 32);

  uint64_t offset = lba * kSsdSectorSize;
  uint64_t bytes = static_cast<uint64_t>(nsectors) * kSsdSectorSize;
  if (offset + bytes > media_.size() || bytes == 0) {
    errors_->Inc();
    co_await WriteCompletion(cookie, kSsdStatusLbaOutOfRange);
    co_return;
  }
  if (opcode != kSsdOpRead && opcode != kSsdOpWrite) {
    errors_->Inc();
    co_await WriteCompletion(cookie, kSsdStatusBadOpcode);
    co_return;
  }

  co_await channels_->Acquire();
  Nanos start = loop().now();
  Nanos mean = opcode == kSsdOpRead ? config_.read_mean : config_.write_mean;
  double mu = std::log(static_cast<double>(mean)) -
              config_.latency_sigma * config_.latency_sigma / 2;
  Nanos flash = static_cast<Nanos>(rng_.LogNormal(mu, config_.latency_sigma));
  co_await sim::Delay(loop(), flash);

  Status st;
  if (opcode == kSsdOpRead) {
    st = co_await DmaWrite(buf_addr,
                           std::span<const std::byte>(media_.data() + offset, bytes));
    reads_->Inc();
    read_bytes_->Add(bytes);
  } else {
    std::vector<std::byte> buf(bytes);
    st = co_await DmaRead(buf_addr, buf);
    if (st.ok()) {
      std::memcpy(media_.data() + offset, buf.data(), bytes);
    }
    writes_->Inc();
    write_bytes_->Add(bytes);
  }
  busy_ns_ += loop().now() - start;
  channels_->Release();
  if (!st.ok()) {
    co_return;  // host went away mid-command
  }
  co_await WriteCompletion(cookie, kSsdStatusOk);
}

sim::Task<> Ssd::WriteCompletion(uint64_t cookie, uint16_t status) {
  if (cq_base_ == 0 || sq_size_ == 0) {
    co_return;
  }
  // Claim the sequence number (and thus the CQ slot) BEFORE suspending:
  // commands complete concurrently and two in-flight completions must
  // never target the same slot.
  uint64_t seq = ++completions_;
  std::array<std::byte, kSsdCplSize> cpl{};
  PutU64(cpl.data(), seq);
  PutU64(cpl.data() + 8, cookie);
  PutU16(cpl.data() + 16, status);
  uint64_t addr = cq_base_ + ((seq - 1) % sq_size_) * kSsdCplSize;
  (void)co_await DmaWrite(addr, cpl);
}

}  // namespace cxlpool::devices
