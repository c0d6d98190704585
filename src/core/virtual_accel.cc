#include "src/core/virtual_accel.h"

#include "src/msg/wire.h"

namespace cxlpool::core {

sim::Task<Result<uint16_t>> VirtualAccel::RunJob(uint64_t in_addr, uint32_t in_len,
                                                 uint64_t out_addr, Nanos deadline) {
  devices::QueuePairDevice::Command job{};
  job[0] = std::byte{devices::kAccelOpXorStream};
  msg::wire::PutU64(job.data() + 8, in_addr);
  msg::wire::PutU32(job.data() + 16, in_len);
  msg::wire::PutU64(job.data() + 24, out_addr);
  co_return co_await driver_->SubmitAndWait(job, deadline);
}

}  // namespace cxlpool::core
