// VirtualAccel: host-side handle to a (possibly remote) pooled
// accelerator — the §5 "soft accelerator disaggregation" datapath: a
// QueuePairDriver on one of the device's queue pairs, 32 entries deep. A
// rack deploys one specialized accelerator; every host in the CXL pod
// submits jobs to it through pool memory and the forwarding channel.
#ifndef SRC_CORE_VIRTUAL_ACCEL_H_
#define SRC_CORE_VIRTUAL_ACCEL_H_

#include <memory>

#include "src/core/queue_pair.h"
#include "src/devices/accel.h"

namespace cxlpool::core {

class VirtualAccel {
 public:
  struct Config {
    bool rings_in_cxl = true;
  };

  // `queue_pair` selects the device queue pair this handle drives (obtain
  // one via QueuePairDevice::AllocateQueuePair; each concurrent user needs
  // its own).
  static sim::Task<Result<std::unique_ptr<VirtualAccel>>> Create(
      cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config,
      int queue_pair = 0) {
    QueuePairDriver::Config qp{
        .entries = 32,
        .rings_in_cxl = config.rings_in_cxl,
        .reg_base = static_cast<uint64_t>(queue_pair) * devices::kQpStride};
    auto driver = co_await QueuePairDriver::Create(host, std::move(mmio), qp);
    if (!driver.ok()) {
      co_return driver.status();
    }
    co_return std::unique_ptr<VirtualAccel>(new VirtualAccel(std::move(*driver)));
  }

  // Runs one offload job: device DMAs `in_len` bytes from `in_addr`,
  // transforms them, DMAs the result to `out_addr`. Returns device status
  // (0 = OK).
  sim::Task<Result<uint16_t>> RunJob(uint64_t in_addr, uint32_t in_len,
                                     uint64_t out_addr, Nanos deadline);

  sim::Task<Status> Rebind(std::unique_ptr<MmioPath> mmio) {
    return driver_->Rebind(std::move(mmio));
  }

  QueuePairDriver& driver() { return *driver_; }
  bool remote() const { return driver_->remote(); }

 private:
  explicit VirtualAccel(std::unique_ptr<QueuePairDriver> driver)
      : driver_(std::move(driver)) {}

  std::unique_ptr<QueuePairDriver> driver_;
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_VIRTUAL_ACCEL_H_
