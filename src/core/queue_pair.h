// QueuePairDriver: the host half of one queue pair on a
// devices::QueuePairDevice (the SSD and the accelerator), whose register
// map, 64 B command and completion formats and cookie offset it shares.
// Placement and MMIO-path genericity work exactly as in VirtualNic: rings
// live in local DRAM or CXL pool memory, doorbells go direct or over the
// forwarding channel. Completions may arrive out of submission order;
// SubmitAndWait matches on cookie.
#ifndef SRC_CORE_QUEUE_PAIR_H_
#define SRC_CORE_QUEUE_PAIR_H_

#include <map>
#include <memory>
#include <set>

#include "src/core/mmio_path.h"
#include "src/core/placed_memory.h"
#include "src/cxl/pool.h"
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
  // completion status until `deadline`.
  sim::Task<Result<uint16_t>> SubmitAndWait(devices::QueuePairDevice::Command& cmd,
                                            Nanos deadline);

  // Retarget to a replacement device (failover / migration).
  sim::Task<Status> Rebind(std::unique_ptr<MmioPath> mmio);

  uint64_t submitted() const { return sq_posted_; }
  uint64_t completed() const { return cq_next_; }
  bool remote() const { return mmio_->is_remote(); }
  PlacedMemory& memory() { return mem_; }

  ~QueuePairDriver();

 private:
  QueuePairDriver(cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio,
                  Config config);

  sim::Task<Status> ProgramDevice();
  // Consumes at most one completion entry; true if it consumed one.
  sim::Task<Result<bool>> PollCqOnce();

  cxl::HostAdapter& host_;
  std::unique_ptr<MmioPath> mmio_;
  Config config_;
  PlacedMemory mem_;
  sim::PollBackoff backoff_;

  cxl::PoolSegment segment_;
  bool owns_segment_ = false;
  uint64_t sq_base_ = 0;
  uint64_t cq_base_ = 0;

  uint64_t next_cookie_ = 1;
  uint64_t sq_posted_ = 0;   // reserved slots
  uint64_t sq_ready_ = 0;    // contiguous published prefix
  uint64_t sq_doorbell_sent_ = 0;
  std::set<uint64_t> sq_published_;
  uint64_t cq_next_ = 0;
  uint64_t in_flight_ = 0;
  bool polling_ = false;
  std::map<uint64_t, uint16_t> completed_;  // cookie -> status
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_QUEUE_PAIR_H_
