#include "src/devices/accel.h"

#include <cmath>
#include <vector>

#include "src/msg/wire.h"

namespace cxlpool::devices {

using msg::wire::GetU32;
using msg::wire::GetU64;

Accelerator::Accelerator(PcieDeviceId id, std::string name, sim::EventLoop& loop,
                         AccelConfig config)
    : QueuePairDevice(id, std::move(name), loop, config.pcie_link,
                      config.pcie_timing, kAccelMaxQp, config.engines),
      config_(config) {}

void Accelerator::OnAttach() {
  jobs_ = metrics().GetCounter("accel.jobs");
  bytes_in_ = metrics().GetCounter("accel.bytes_in");
  errors_ = metrics().GetCounter("accel.errors");
  QueuePairDevice::OnAttach();
}

sim::Task<Result<uint16_t>> Accelerator::Execute(const Command& job) {
  // Job layout: opcode u8 | pad[7] | in_addr u64 | in_len u32 | pad u32 |
  //             out_addr u64 | cookie u64
  uint8_t opcode = static_cast<uint8_t>(job[0]);
  uint64_t in_addr = GetU64(job.data() + 8);
  uint32_t in_len = GetU32(job.data() + 16);
  uint64_t out_addr = GetU64(job.data() + 24);

  if (opcode != kAccelOpXorStream || in_len == 0) {
    errors_->Inc();
    co_return uint16_t{1};
  }

  co_await AcquireUnit();
  Nanos start = loop().now();

  std::vector<std::byte> data(in_len);
  Status st = co_await DmaRead(in_addr, data);
  if (st.ok()) {
    Nanos compute = config_.job_setup +
                    static_cast<Nanos>(std::ceil(in_len / config_.bytes_per_ns));
    co_await sim::Delay(loop(), compute);
    for (std::byte& b : data) {
      b ^= std::byte{0x5a};
    }
    st = co_await DmaWrite(out_addr, data);
  }

  ReleaseUnit(start);
  if (!st.ok()) {
    co_return st;
  }
  jobs_->Inc();
  bytes_in_->Add(in_len);
  co_return uint16_t{0};
}

}  // namespace cxlpool::devices
