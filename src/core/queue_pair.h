// QueuePairDriver: the host half of one queue pair on a
// devices::QueuePairDevice (the SSD and the accelerator), whose register
// map, 64 B command and completion formats and cookie offset it shares.
// Placement and MMIO-path genericity work exactly as in VirtualNic: rings
// live in local DRAM or CXL pool memory, the submission queue is a
// DriverRing like the NIC's rings, and doorbells go direct or over the
// forwarding channel. Completions may arrive out of submission order;
// SubmitAndWait matches on cookie.
#ifndef SRC_CORE_QUEUE_PAIR_H_
#define SRC_CORE_QUEUE_PAIR_H_

#include <map>
#include <memory>

#include "src/core/driver_ring.h"
#include "src/core/mmio_path.h"
#include "src/core/placed_memory.h"
#include "src/devices/queue_pair_device.h"
#include "src/sim/poll.h"

namespace cxlpool::core {

class QueuePairDriver {
 public:
  struct Config {
    uint32_t entries = 64;
    bool rings_in_cxl = true;
    // The queue pair's register block: qp * devices::kQpStride.
    uint64_t reg_base = 0;
  };

  // When `host` traces, every SubmitAndWait becomes a qp.submit_wait root
  // span whose context rides into the doorbell MMIO (and, for forwarded
  // paths, across the wire to the home agent).
  static sim::Task<Result<std::unique_ptr<QueuePairDriver>>> Create(
      cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config);

  // Stamps a fresh cookie into `cmd`, submits it, and waits for its
  // completion status until `deadline`. kAborted when a Rebind lands while
  // the command is being published.
  sim::Task<Result<uint16_t>> SubmitAndWait(devices::QueuePairDevice::Command& cmd,
                                            Nanos deadline);

  // Retarget to a replacement device (failover / migration).
  sim::Task<Status> Rebind(std::unique_ptr<MmioPath> mmio);

  bool remote() const { return mmio_->is_remote(); }

 private:
  QueuePairDriver(cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio,
                  Config config, PlacedMemory mem);

  sim::Task<Status> ProgramDevice();
  // Consumes at most one completion entry; true if it consumed one.
  sim::Task<Result<bool>> PollCqOnce();

  cxl::HostAdapter& host_;
  std::unique_ptr<MmioPath> mmio_;
  Config config_;
  // The submission queue, then the completion queue.
  PlacedMemory mem_;
  sim::PollBackoff backoff_;
  DriverRing sq_;
  uint64_t cq_base_;

  uint64_t next_cookie_ = 1;
  uint64_t cq_next_ = 0;
  uint64_t in_flight_ = 0;
  bool polling_ = false;
  std::map<uint64_t, uint16_t> completed_;  // cookie -> status
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_QUEUE_PAIR_H_
