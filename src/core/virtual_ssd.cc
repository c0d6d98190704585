#include "src/core/virtual_ssd.h"

#include "src/msg/wire.h"

namespace cxlpool::core {

sim::Task<Result<uint16_t>> VirtualSsd::Submit(uint8_t opcode, uint64_t lba,
                                               uint32_t nsectors, uint64_t buf_addr,
                                               Nanos deadline) {
  devices::QueuePairDevice::Command cmd{};
  cmd[0] = std::byte{opcode};
  msg::wire::PutU64(cmd.data() + 8, lba);
  msg::wire::PutU32(cmd.data() + 16, nsectors);
  msg::wire::PutU64(cmd.data() + 24, buf_addr);
  co_return co_await driver_->SubmitAndWait(cmd, deadline);
}

}  // namespace cxlpool::core
