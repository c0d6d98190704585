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
#include <set>
#include <vector>

#include "src/core/mmio_path.h"
#include "src/core/placed_memory.h"
#include "src/cxl/pool.h"
#include "src/devices/nic.h"
#include "src/msg/coalesce.h"
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
    // Post RX doorbells every N buffers (MMIO amortization).
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
  // under that host's scope; the RX doorbell's coalesce.* series carry
  // {"doorbell": "vnic_rx"}.
  static sim::Task<Result<std::unique_ptr<VirtualNic>>> Create(
      cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config);

  // Queues one frame for transmission. The payload must already be
  // published at `buf_addr` (the stack's BufferPool handles payload
  // coherence). Blocks in simulated time while the TX ring is full.
  sim::Task<Status> SendFrame(netsim::MacAddr dst, uint64_t buf_addr, uint32_t len);

  // Fresh count of completed TX descriptors.
  sim::Task<Result<uint64_t>> TxCompleted();
  // Last observed completion count (no memory access).
  uint64_t tx_completed_cache() const { return tx_completed_cache_; }

  // Hands a receive buffer to the NIC. Doorbells are batched through a
  // msg::DoorbellCoalescer at config.rx_doorbell_batch; FlushRxDoorbell()
  // forces the pending value out.
  sim::Task<Status> PostRxBuffer(uint64_t buf_addr, uint32_t buf_len);
  sim::Task<Status> FlushRxDoorbell();

  // Waits for the next received frame until `deadline` (absolute).
  sim::Task<Result<RxEvent>> PollRx(Nanos deadline);

  // Retargets this handle to a replacement physical NIC via a new MMIO
  // path. Ring memory is re-used; in-flight descriptors are discarded and
  // RX buffers must be re-posted by the caller.
  sim::Task<Status> Rebind(std::unique_ptr<MmioPath> mmio);

  PlacedMemory& memory() { return mem_; }
  const Config& config() const { return config_; }
  bool remote() const { return mmio_->is_remote(); }

  ~VirtualNic();

 private:
  VirtualNic(cxl::HostAdapter& host, std::unique_ptr<MmioPath> mmio, Config config);

  // Lays out rings within the allocated blob.
  void ComputeLayout(uint64_t base);
  // Programs ring registers + zeroes completion structures.
  sim::Task<Status> ProgramDevice();
  // Ring action behind rx_doorbell_: one MMIO write of the folded value.
  sim::Task<Status> RxDoorbellWrite(uint64_t value);

  cxl::HostAdapter& host_;
  std::unique_ptr<MmioPath> mmio_;
  Config config_;
  PlacedMemory mem_;
  // Completion-poll backoff bounds: a dedicated polling core
  // (Junction-style).
  static constexpr Nanos kPollMin = 100;
  static constexpr Nanos kPollMax = 500;
  sim::PollBackoff rx_backoff_{kPollMin, kPollMax};
  sim::PollBackoff tx_backoff_{kPollMin, kPollMax};

  // Memory layout.
  cxl::PoolSegment segment_;  // when rings_in_cxl
  uint64_t tx_ring_ = 0;
  uint64_t tx_cpl_ = 0;
  uint64_t rx_ring_ = 0;
  uint64_t rx_cpl_ = 0;

  // Driver-side ring state. tx_posted_ counts reserved slots; tx_ready_ is
  // the contiguous published prefix eligible for the doorbell.
  uint64_t tx_posted_ = 0;
  uint64_t tx_ready_ = 0;
  uint64_t tx_doorbell_sent_ = 0;
  std::set<uint64_t> tx_published_;  // out-of-order published slots
  uint64_t tx_completed_cache_ = 0;
  uint64_t rebind_generation_ = 0;
  uint64_t rx_posted_ = 0;
  uint64_t rx_cpl_next_ = 0;
  std::vector<uint64_t> rx_shadow_;  // ring idx -> posted buffer addr
  // RX doorbell MMIO writes, folded per rx_doorbell_batch. Rings happen
  // synchronously inside PostRxBuffer / FlushRxDoorbell frames, so the
  // `this` capture in the ring fn is safe.
  msg::DoorbellCoalescer rx_doorbell_;

  bool owns_segment_ = false;
  obs::Counter* tx_posted_count_ = host_.metrics().GetCounter("vnic.tx_posted");
  obs::Counter* rx_posted_count_ = host_.metrics().GetCounter("vnic.rx_posted");
  obs::Counter* rx_events_ = host_.metrics().GetCounter("vnic.rx_events");
  obs::Counter* doorbell_writes_ = host_.metrics().GetCounter("vnic.doorbell_writes");
  // Times SendFrame waited on a full ring.
  obs::Counter* tx_stalls_ = host_.metrics().GetCounter("vnic.tx_stalls");
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_VIRTUAL_NIC_H_
