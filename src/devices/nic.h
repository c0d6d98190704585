// Descriptor-ring NIC model (ConnectX-class, simplified).
//
// The driver (core::VirtualNic) programs ring locations via MMIO
// registers and then operates it entirely through memory:
//
//   TX: driver writes 32 B descriptors into the TX ring, rings the TX
//       doorbell with the new absolute tail count. The NIC DMA-reads
//       descriptors and payload buffers, serializes frames onto its wire,
//       and DMA-writes a running completion count to one 64 B line.
//   RX: driver posts receive buffers as 32 B descriptors and rings the RX
//       doorbell. On frame arrival the NIC DMA-reads the next descriptor,
//       DMA-writes the payload, and DMA-writes a 64 B completion entry
//       (seq, desc index, length) into the RX completion ring.
//
// Crucially the NIC never cares where rings and buffers live: descriptor
// and buffer addresses resolve through the global AddressMap, so placing
// them in CXL pool memory requires zero device changes (paper §4.1).
#ifndef SRC_DEVICES_NIC_H_
#define SRC_DEVICES_NIC_H_

#include <deque>
#include <vector>

#include "src/netsim/network.h"
#include "src/pcie/device.h"
#include "src/sim/sync.h"
#include "src/sim/windowed.h"

namespace cxlpool::devices {

// MMIO register offsets.
inline constexpr uint64_t kNicRegReset = 0x00;
inline constexpr uint64_t kNicRegTxRingBase = 0x10;
inline constexpr uint64_t kNicRegTxRingSize = 0x18;
inline constexpr uint64_t kNicRegTxCplAddr = 0x20;
inline constexpr uint64_t kNicRegTxDoorbell = 0x28;
inline constexpr uint64_t kNicRegRxRingBase = 0x30;
inline constexpr uint64_t kNicRegRxRingSize = 0x38;
inline constexpr uint64_t kNicRegRxCplBase = 0x40;
inline constexpr uint64_t kNicRegRxDoorbell = 0x48;
inline constexpr uint64_t kNicRegLinkStatus = 0x50;  // RO: 1 = wire up
inline constexpr uint64_t kNicRegRxDropped = 0x58;   // RO

// In-memory structure sizes.
inline constexpr uint64_t kNicTxDescSize = 32;  // buf_addr u64, len u32, flags u32, cookie u64
inline constexpr uint64_t kNicRxDescSize = 32;  // buf_addr u64, buf_len u32
inline constexpr uint64_t kNicRxCplSize = 64;   // seq u64, desc_idx u32, len u32

struct NicConfig {
  double wire_gbit = 100.0;
  Nanos tx_per_packet = 300;  // internal pipeline cost per TX frame
  Nanos rx_per_packet = 300;
  // Frames processed concurrently per direction (DMA pipelining depth —
  // real NICs keep dozens of DMA reads in flight).
  int pipeline_depth = 16;
  cxl::LinkSpec pcie_link;    // default x8 gen5 (ample for 100 Gb/s)
  pcie::PcieTiming pcie_timing;
};

// Counts under its device scope (see PcieDevice::AttachTo): nic.tx_frames /
// tx_bytes, nic.rx_frames / rx_bytes, nic.rx_dropped_no_buffer,
// nic.dropped_link_down, and the two fault classes failover benches
// attribute separately, which have distinct recovery paths:
// nic.link_down_episodes (InjectLinkFailure transitions: the wire) and
// nic.wedge_episodes (watchdog FLRs of this NIC: the device).
class Nic : public pcie::PcieDevice, public netsim::Endpoint {
 public:
  Nic(PcieDeviceId id, std::string name, sim::EventLoop& loop, NicConfig config);
  ~Nic() override;

  // Plugs the NIC's wire into the fabric under `mac`.
  Status ConnectNetwork(netsim::Network* network, netsim::MacAddr mac);
  void DisconnectNetwork();
  netsim::MacAddr mac() const { return mac_; }

  // netsim::Endpoint: a frame arrived on the wire.
  void DeliverFrame(netsim::Frame frame) override;

  // Wire (port) failure injection — the failure mode §4.2 migrates away
  // from. The device stays PCIe-alive; the link status register flips.
  void InjectLinkFailure() {
    if (link_up_) {
      link_down_episodes_->Inc();
    }
    link_up_ = false;
  }
  void RepairLink() { link_up_ = true; }
  bool link_up() const { return link_up_; }

  // Offered-load utilization of the wire, for the orchestrator's monitor.
  double WireUtilization() const;

 protected:
  void OnMmioWrite(uint64_t reg, uint64_t value) override;
  uint64_t OnMmioRead(uint64_t reg) override;
  void OnAttach() override;
  void OnDetach() override;
  void OnFailure() override;
  void OnReset() override;

 private:
  sim::Task<> TxEngine(uint64_t my_generation);
  sim::Task<> TxOne(uint64_t my_generation, uint64_t idx);
  sim::Task<> RxEngine(uint64_t my_generation);
  sim::Task<> RxOne(uint64_t my_generation, uint64_t idx, uint64_t seq,
                    netsim::Frame frame);
  bool EngineShouldExit(uint64_t my_generation) const;

  NicConfig config_;
  netsim::Network* network_ = nullptr;
  netsim::MacAddr mac_ = 0;
  bool link_up_ = true;

  // Ring state programmed by the driver.
  uint64_t tx_ring_base_ = 0;
  uint64_t tx_ring_size_ = 0;
  uint64_t tx_cpl_addr_ = 0;
  uint64_t tx_tail_ = 0;  // doorbell (absolute descriptor count)
  uint64_t tx_head_ = 0;  // processed count
  uint64_t rx_ring_base_ = 0;
  uint64_t rx_ring_size_ = 0;
  uint64_t rx_cpl_base_ = 0;
  uint64_t rx_tail_ = 0;  // posted buffer count
  uint64_t rx_head_ = 0;  // consumed buffer count

  sim::BandwidthQueue wire_tx_;
  mutable sim::WindowedUtilization windowed_util_;
  std::deque<netsim::Frame> rx_pending_;
  sim::Event tx_kick_;
  sim::Event rx_kick_;
  std::unique_ptr<sim::Semaphore> tx_pipe_;  // DMA pipelining depth
  std::unique_ptr<sim::Semaphore> rx_pipe_;
  uint64_t tx_done_ = 0;         // completed TX frames (may finish out of order)
  uint64_t rx_completions_ = 0;  // claimed RX completion sequence numbers
  // Frames dropped for want of a posted buffer: the kNicRegRxDropped
  // register (device state; nic.rx_dropped_no_buffer counts the same).
  uint64_t rx_dropped_ = 0;

  obs::Counter* tx_frames_ = nullptr;
  obs::Counter* tx_bytes_ = nullptr;
  obs::Counter* rx_frames_ = nullptr;
  obs::Counter* rx_bytes_ = nullptr;
  obs::Counter* rx_dropped_no_buffer_ = nullptr;
  obs::Counter* dropped_link_down_ = nullptr;
  obs::Counter* link_down_episodes_ = nullptr;
  obs::Counter* wedge_episodes_ = nullptr;
};

}  // namespace cxlpool::devices

#endif  // SRC_DEVICES_NIC_H_
