#include "src/devices/ssd.h"

#include <cmath>
#include <vector>

#include "src/msg/wire.h"

namespace cxlpool::devices {

using msg::wire::GetU32;
using msg::wire::GetU64;

Ssd::Ssd(PcieDeviceId id, std::string name, sim::EventLoop& loop, SsdConfig config)
    : QueuePairDevice(id, std::move(name), loop, config.pcie_link, config.pcie_timing,
                      /*queue_pairs=*/1, config.channels),
      config_(config),
      media_(this->name() + "-flash", config.capacity_bytes),
      rng_(config.seed) {}

void Ssd::OnAttach() {
  reads_ = metrics().GetCounter("ssd.reads");
  writes_ = metrics().GetCounter("ssd.writes");
  read_bytes_ = metrics().GetCounter("ssd.read_bytes");
  write_bytes_ = metrics().GetCounter("ssd.write_bytes");
  errors_ = metrics().GetCounter("ssd.errors");
  QueuePairDevice::OnAttach();
}

sim::Task<Result<uint16_t>> Ssd::Execute(const Command& cmd) {
  // Command layout: opcode u8 | pad[7] | lba u64 | nsectors u32 | pad u32 |
  //                 buf_addr u64 | cookie u64
  uint8_t opcode = static_cast<uint8_t>(cmd[0]);
  uint64_t lba = GetU64(cmd.data() + 8);
  uint32_t nsectors = GetU32(cmd.data() + 16);
  uint64_t buf_addr = GetU64(cmd.data() + 24);

  uint64_t offset = lba * kSsdSectorSize;
  uint64_t bytes = static_cast<uint64_t>(nsectors) * kSsdSectorSize;
  if (offset + bytes > media_.size() || bytes == 0) {
    errors_->Inc();
    co_return kSsdStatusLbaOutOfRange;
  }
  if (opcode != kSsdOpRead && opcode != kSsdOpWrite) {
    errors_->Inc();
    co_return kSsdStatusBadOpcode;
  }

  co_await AcquireUnit();
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
      media_.Write(offset, buf);
    }
    writes_->Inc();
    write_bytes_->Add(bytes);
  }
  ReleaseUnit(start);
  if (!st.ok()) {
    co_return st;
  }
  co_return kSsdStatusOk;
}

}  // namespace cxlpool::devices
