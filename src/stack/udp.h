// Polling userspace UDP stack in the style of Junction [NSDI'24]: one
// kernel-bypass I/O loop per stack, sockets bound to ports, zero kernel
// involvement. The stack drives a VirtualNic — local or pooled — and takes
// its TX/RX buffers from a BufferPool whose placement (local DRAM vs CXL
// pool) is the Figure 3 experiment variable.
//
// Datagram wire format inside the Ethernet frame payload:
//   [dst_port u16][src_port u16][src_mac u64][payload ...]
#ifndef SRC_STACK_UDP_H_
#define SRC_STACK_UDP_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/core/virtual_nic.h"
#include "src/sim/sync.h"
#include "src/stack/buffer_pool.h"

namespace cxlpool::stack {

inline constexpr size_t kUdpHeaderSize = 12;
inline constexpr uint32_t kDefaultMtu = 1514;
// Largest UDP payload that fits one buffer/frame.
inline constexpr uint32_t kMaxUdpPayload = kDefaultMtu - kUdpHeaderSize;

struct Datagram {
  netsim::MacAddr src_mac = 0;
  uint16_t src_port = 0;
  std::vector<std::byte> payload;
};

class UdpStack;

// A bound UDP socket. Obtained from UdpStack::Bind; owned by the stack.
class UdpSocket {
 public:
  UdpSocket(UdpStack* stack, uint16_t port, sim::EventLoop& loop)
      : stack_(stack), port_(port), rx_queue_(loop) {}

  uint16_t port() const { return port_; }
  sim::EventLoop& Loop();

  // Blocks (simulated) until a datagram arrives or `deadline` passes.
  sim::Task<Result<Datagram>> Recv(Nanos deadline);

  // Sends `payload` to (dst_mac, dst_port). Allocates a TX buffer from the
  // stack's pool, publishes the bytes with placement-correct coherence,
  // and queues the frame on the virtual NIC.
  sim::Task<Status> SendTo(netsim::MacAddr dst_mac, uint16_t dst_port,
                           std::span<const std::byte> payload);

 private:
  friend class UdpStack;
  UdpStack* stack_;
  uint16_t port_;
  sim::Queue<Datagram> rx_queue_;
};

class UdpStack {
 public:
  struct Config {
    uint32_t rx_buffers = 128;  // receive buffers kept posted
    // Worker cores processing received packets in parallel (Junction runs
    // several kthreads; one dispatcher + N workers here).
    int worker_cores = 1;
  };

  // `vnic` and `pool` must outlive the stack. `mac` is this stack's
  // address on the fabric (the physical NIC's connected MAC). Counts the
  // stack.* series declared with its members under the host's scope.
  UdpStack(cxl::HostAdapter& host, core::VirtualNic* vnic, BufferPool* pool,
           netsim::MacAddr mac, Config config);

  // Posts initial RX buffers and spawns the I/O loop.
  sim::Task<Status> Start(sim::StopToken& stop);

  Result<UdpSocket*> Bind(uint16_t port);

  netsim::MacAddr mac() const { return mac_; }
  cxl::HostAdapter& host() { return host_; }
  core::VirtualNic& vnic() { return *vnic_; }
  BufferPool& pool() { return *pool_; }

  // Failover/migration support: rebinds the virtual NIC to a new MMIO
  // path, reclaims orphaned RX buffers and reposts fresh ones. Wire this
  // into Agent::SetMigrationHandler.
  sim::Task<Status> HandleMigration(std::unique_ptr<core::MmioPath> new_path);

 private:
  friend class UdpSocket;

  // How long the I/O loop waits for a receive completion before it
  // harvests TX completions and re-checks `stop`.
  static constexpr Nanos kRxPollSlice = 50 * kMicrosecond;
  // Per-packet CPU cost of stack processing (parse, socket lookup,
  // copies) — Junction-class, not kernel-class.
  static constexpr Nanos kPerPacketCpu = 500;

  sim::Task<> IoLoop(sim::StopToken& stop);
  sim::Task<> Worker(sim::StopToken& stop);
  // Parses one received frame and delivers it to its socket.
  sim::Task<> ProcessFrame(core::VirtualNic::RxEvent ev);
  sim::Task<Status> PostRxBuffers();
  // Frees TX buffers whose descriptors completed.
  sim::Task<Status> ReclaimTxBuffers(bool force_refresh);

  cxl::HostAdapter& host_;
  core::VirtualNic* vnic_;
  BufferPool* pool_;
  netsim::MacAddr mac_;
  Config config_;

  std::map<uint16_t, std::unique_ptr<UdpSocket>> sockets_;
  std::deque<core::VirtualNic::RxEvent> work_;  // dispatcher -> workers
  std::vector<uint64_t> posted_rx_;     // addresses currently owned by the NIC
  std::vector<uint64_t> inflight_tx_;   // FIFO of buffers awaiting completion
  uint64_t tx_reclaimed_ = 0;           // completions already processed
  uint64_t migrations_ = 0;             // HandleMigration calls so far

  obs::Counter* tx_datagrams_ = host_.metrics().GetCounter("stack.tx_datagrams");
  obs::Counter* rx_datagrams_ = host_.metrics().GetCounter("stack.rx_datagrams");
  // Datagrams for an unbound port.
  obs::Counter* rx_no_socket_ = host_.metrics().GetCounter("stack.rx_no_socket");
  // Sends refused: TX buffer pool exhausted.
  obs::Counter* tx_no_buffer_ = host_.metrics().GetCounter("stack.tx_no_buffer");
};

}  // namespace cxlpool::stack

#endif  // SRC_STACK_UDP_H_
