// VirtualSsd: host-side handle to a (possibly remote) pooled SSD: a
// QueuePairDriver on the SSD's one queue pair, 64 entries deep. Storage is
// the second workload class the paper pools (local-SSD stranding is the
// largest at 54%, §2.1).
#ifndef SRC_CORE_VIRTUAL_SSD_H_
#define SRC_CORE_VIRTUAL_SSD_H_

#include <memory>

#include "src/common/check.h"
#include "src/core/queue_pair.h"
#include "src/devices/ssd.h"

namespace cxlpool::core {

class VirtualSsd {
 public:
  struct Config {
    bool rings_in_cxl = true;
    // Chooses nothing: the driver traces with host.tracer(). Create CHECKs
    // that it is null or that tracer. Kept only so existing callers build.
    obs::Tracer* tracer = nullptr;
  };

  static sim::Task<Result<std::unique_ptr<VirtualSsd>>> Create(
      cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config) {
    CXLPOOL_CHECK(config.tracer == nullptr || config.tracer == host.tracer());
    QueuePairDriver::Config qp{.entries = 64, .rings_in_cxl = config.rings_in_cxl};
    auto driver = co_await QueuePairDriver::Create(host, std::move(mmio), qp);
    if (!driver.ok()) {
      co_return driver.status();
    }
    co_return std::unique_ptr<VirtualSsd>(new VirtualSsd(std::move(*driver)));
  }

  // Reads/writes `nsectors` 512 B sectors at `lba` to/from `buf_addr`
  // (which the device DMAs — local DRAM or CXL pool). Returns the device
  // status code (devices::kSsdStatusOk on success).
  sim::Task<Result<uint16_t>> ReadBlocks(uint64_t lba, uint32_t nsectors,
                                         uint64_t buf_addr, Nanos deadline) {
    return Submit(devices::kSsdOpRead, lba, nsectors, buf_addr, deadline);
  }
  sim::Task<Result<uint16_t>> WriteBlocks(uint64_t lba, uint32_t nsectors,
                                          uint64_t buf_addr, Nanos deadline) {
    return Submit(devices::kSsdOpWrite, lba, nsectors, buf_addr, deadline);
  }

  sim::Task<Status> Rebind(std::unique_ptr<MmioPath> mmio) {
    return driver_->Rebind(std::move(mmio));
  }

  QueuePairDriver& driver() { return *driver_; }
  bool remote() const { return driver_->remote(); }

 private:
  explicit VirtualSsd(std::unique_ptr<QueuePairDriver> driver)
      : driver_(std::move(driver)) {}

  sim::Task<Result<uint16_t>> Submit(uint8_t opcode, uint64_t lba, uint32_t nsectors,
                                     uint64_t buf_addr, Nanos deadline);

  std::unique_ptr<QueuePairDriver> driver_;
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_VIRTUAL_SSD_H_
