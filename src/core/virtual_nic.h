// VirtualNic: the host-side handle to a (possibly remote) physical NIC.
//
// This is the paper's datapath in one class. Descriptor rings and
// completion structures are placed either in local DRAM (classic direct-
// attached operation) or in shared CXL pool memory (pooled operation); the
// physical NIC DMAs to them identically. Doorbells go through an MmioPath:
// direct MMIO when the NIC is local, forwarded over the sub-microsecond
// CXL message channel when it is remote. Software coherence (nt-store
// publish / ReadFresh consume) is applied exactly where the pool is
// non-coherent.
//
// Rebind() retargets the handle to a replacement NIC after a failure or a
// load-balancing migration — ring memory stays in place (the new device
// simply DMAs the same pool addresses), which is what makes failover fast.
#ifndef SRC_CORE_VIRTUAL_NIC_H_
#define SRC_CORE_VIRTUAL_NIC_H_

#include <memory>
#include <vector>

#include "src/core/driver_ring.h"
#include "src/core/mmio_path.h"
#include "src/core/placed_memory.h"
#include "src/devices/nic.h"
#include "src/netsim/network.h"
#include "src/sim/poll.h"

namespace cxlpool::core {

class VirtualNic {
 public:
  struct Config {
    uint32_t tx_entries = 256;
    uint32_t rx_entries = 256;
    // true: rings + completions live in shared CXL pool memory (pooled
    // mode); false: in the host's local DRAM (direct-attached mode).
    bool rings_in_cxl = true;
    // Ring the RX doorbell once N buffers are posted beyond the last
    // announced value (MMIO amortization).
    uint32_t rx_doorbell_batch = 8;
  };

  struct RxEvent {
    uint32_t desc_idx = 0;
    uint32_t len = 0;
    uint64_t buf_addr = 0;
  };

  // Allocates ring memory per `config` and programs the NIC through
  // `mmio`. `host` is the host running the I/O stack, not necessarily the
  // NIC's home host. Counts the vnic.* series declared with its members
  // under that host's scope.
  static sim::Task<Result<std::unique_ptr<VirtualNic>>> Create(
      cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config);

  // Queues one frame for transmission. The payload must already be
  // published at `buf_addr` (the stack's BufferPool handles payload
  // coherence). Blocks in simulated time while the TX ring is full;
  // kAborted when a Rebind lands while the descriptor is being published.
  sim::Task<Status> SendFrame(netsim::MacAddr dst, uint64_t buf_addr, uint32_t len);

  // Fresh count of completed TX descriptors.
  sim::Task<Result<uint64_t>> TxCompleted();
  // Last observed completion count (no memory access).
  uint64_t tx_completed_cache() const { return tx_completed_cache_; }

  // Hands a receive buffer to the NIC; kAborted when a Rebind lands while
  // the descriptor is being published. Doorbells are batched at
  // config.rx_doorbell_batch; FlushRxDoorbell() announces a partial batch.
  sim::Task<Status> PostRxBuffer(uint64_t buf_addr, uint32_t buf_len);
  sim::Task<Status> FlushRxDoorbell();

  // Waits for the next received frame until `deadline` (absolute).
  sim::Task<Result<RxEvent>> PollRx(Nanos deadline);

  // Retargets this handle to a replacement physical NIC via a new MMIO
  // path. Ring memory is re-used; in-flight descriptors are discarded and
  // RX buffers must be re-posted by the caller.
  sim::Task<Status> Rebind(std::unique_ptr<MmioPath> mmio);

  const Config& config() const { return config_; }
  bool remote() const { return mmio_->is_remote(); }

 private:
  VirtualNic(cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config,
             PlacedMemory mem);

  // Programs ring registers + zeroes completion structures.
  sim::Task<Status> ProgramDevice();

  cxl::HostAdapter& host_;
  std::unique_ptr<MmioPath> mmio_;
  Config config_;
  // TX ring, TX completion line, RX ring, RX completion ring, in order.
  PlacedMemory mem_;
  // Completion-poll backoff bounds: a dedicated polling core
  // (Junction-style).
  static constexpr Nanos kPollMin = 100;
  static constexpr Nanos kPollMax = 500;
  sim::PollBackoff rx_backoff_{kPollMin, kPollMax};
  sim::PollBackoff tx_backoff_{kPollMin, kPollMax};

  DriverRing tx_;
  uint64_t tx_cpl_;
  DriverRing rx_;
  uint64_t rx_cpl_;

  uint64_t tx_completed_cache_ = 0;
  uint64_t rx_cpl_next_ = 0;
  std::vector<uint64_t> rx_shadow_;  // ring idx -> posted buffer addr

  obs::Counter* tx_posted_count_ = host_.metrics().GetCounter("vnic.tx_posted");
  obs::Counter* rx_posted_count_ = host_.metrics().GetCounter("vnic.rx_posted");
  obs::Counter* rx_events_ = host_.metrics().GetCounter("vnic.rx_events");
  obs::Counter* doorbell_writes_ = host_.metrics().GetCounter("vnic.doorbell_writes");
  // Times SendFrame waited on a full ring.
  obs::Counter* tx_stalls_ = host_.metrics().GetCounter("vnic.tx_stalls");
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_VIRTUAL_NIC_H_
