#include "src/devices/nic.h"

#include <utility>

#include "src/common/check.h"
#include "src/msg/wire.h"

namespace cxlpool::devices {

using msg::wire::GetU32;
using msg::wire::GetU64;
using msg::wire::PutU32;
using msg::wire::PutU64;

Nic::Nic(PcieDeviceId id, std::string name, sim::EventLoop& loop, NicConfig config)
    : pcie::PcieDevice(id, std::move(name), loop, config.pcie_link,
                       config.pcie_timing),
      config_(config),
      wire_tx_(GbitPerSecToBytesPerNanos(config.wire_gbit)),
      tx_kick_(loop),
      rx_kick_(loop),
      tx_pipe_(std::make_unique<sim::Semaphore>(loop, config.pipeline_depth)),
      rx_pipe_(std::make_unique<sim::Semaphore>(loop, config.pipeline_depth)) {}

Nic::~Nic() { DisconnectNetwork(); }

Status Nic::ConnectNetwork(netsim::Network* network, netsim::MacAddr mac) {
  CXLPOOL_CHECK(network != nullptr);
  RETURN_IF_ERROR(network->Attach(mac, this));
  network_ = network;
  mac_ = mac;
  return OkStatus();
}

void Nic::DisconnectNetwork() {
  if (network_ != nullptr) {
    (void)network_->Detach(mac_);
    network_ = nullptr;
  }
}

void Nic::DeliverFrame(netsim::Frame frame) {
  if (!link_up_ || failed()) {
    dropped_link_down_->Inc();
    return;
  }
  rx_pending_.push_back(std::move(frame));
  rx_kick_.Set();
}

double Nic::WireUtilization() const {
  Nanos now = const_cast<Nic*>(this)->loop().now();
  return windowed_util_.Update(now, wire_tx_.busy_total(), 1.0);
}

void Nic::OnMmioWrite(uint64_t reg, uint64_t value) {
  switch (reg) {
    case kNicRegReset:
      tx_tail_ = tx_head_ = 0;
      tx_done_ = 0;
      rx_tail_ = rx_head_ = 0;
      rx_completions_ = 0;
      rx_pending_.clear();
      break;
    case kNicRegTxRingBase:
      tx_ring_base_ = value;
      break;
    case kNicRegTxRingSize:
      tx_ring_size_ = value;
      break;
    case kNicRegTxCplAddr:
      tx_cpl_addr_ = value;
      break;
    case kNicRegTxDoorbell:
      if (value > tx_tail_) {
        tx_tail_ = value;
        tx_kick_.Set();
      }
      break;
    case kNicRegRxRingBase:
      rx_ring_base_ = value;
      break;
    case kNicRegRxRingSize:
      rx_ring_size_ = value;
      break;
    case kNicRegRxCplBase:
      rx_cpl_base_ = value;
      break;
    case kNicRegRxDoorbell:
      if (value > rx_tail_) {
        rx_tail_ = value;
        rx_kick_.Set();
      }
      break;
    default:
      break;  // writes to unknown registers are ignored, like real hardware
  }
}

uint64_t Nic::OnMmioRead(uint64_t reg) {
  switch (reg) {
    case kNicRegLinkStatus:
      return link_up_ ? 1 : 0;
    case kNicRegRxDropped:
      return rx_dropped_;
    case kNicRegTxDoorbell:
      return tx_tail_;
    case kNicRegRxDoorbell:
      return rx_tail_;
    default:
      return 0;
  }
}

void Nic::OnAttach() {
  tx_frames_ = metrics().GetCounter("nic.tx_frames");
  tx_bytes_ = metrics().GetCounter("nic.tx_bytes");
  rx_frames_ = metrics().GetCounter("nic.rx_frames");
  rx_bytes_ = metrics().GetCounter("nic.rx_bytes");
  rx_dropped_no_buffer_ = metrics().GetCounter("nic.rx_dropped_no_buffer");
  dropped_link_down_ = metrics().GetCounter("nic.dropped_link_down");
  link_down_episodes_ = metrics().GetCounter("nic.link_down_episodes");
  wedge_episodes_ = metrics().GetCounter("nic.wedge_episodes");
  sim::Spawn(TxEngine(generation()));
  sim::Spawn(RxEngine(generation()));
}

void Nic::OnDetach() {
  // Engines observe the generation bump and exit at their next wakeup.
  tx_kick_.Set();
  rx_kick_.Set();
}

void Nic::OnFailure() {
  tx_kick_.Set();
  rx_kick_.Set();
}

void Nic::OnReset() {
  // Attribute the episode: each Wedge() since the last reset was one
  // device-wedge episode (vs nic.link_down_episodes for wire faults).
  wedge_episodes_->Add(TakeWedges());
  // Wake the old engines so they observe the generation bump and exit.
  tx_kick_.Set();
  rx_kick_.Set();
  // BAR state comes up clean, as after a real FLR; the driver must
  // reprogram the rings before the NIC moves traffic again.
  tx_ring_base_ = tx_ring_size_ = tx_cpl_addr_ = 0;
  tx_tail_ = tx_head_ = tx_done_ = 0;
  rx_ring_base_ = rx_ring_size_ = rx_cpl_base_ = 0;
  rx_tail_ = rx_head_ = rx_completions_ = 0;
  rx_pending_.clear();
  if (attached()) {
    sim::Spawn(TxEngine(generation()));
    sim::Spawn(RxEngine(generation()));
  }
}

bool Nic::EngineShouldExit(uint64_t my_generation) const {
  return generation() != my_generation;
}

sim::Task<> Nic::TxEngine(uint64_t my_generation) {
  // Descriptor claims are serial; frame DMA + transmit runs pipelined up
  // to pipeline_depth (real NICs keep many DMA reads in flight).
  while (!EngineShouldExit(my_generation)) {
    if (tx_head_ >= tx_tail_ || tx_ring_size_ == 0) {
      co_await tx_kick_.Wait();
      tx_kick_.Reset();
      continue;
    }
    co_await tx_pipe_->Acquire();
    if (EngineShouldExit(my_generation)) {
      tx_pipe_->Release();
      co_return;
    }
    uint64_t idx = tx_head_ % tx_ring_size_;
    ++tx_head_;
    sim::Spawn(TxOne(my_generation, idx));
  }
}

sim::Task<> Nic::TxOne(uint64_t my_generation, uint64_t idx) {
  std::array<std::byte, kNicTxDescSize> desc;
  Status st = co_await DmaRead(tx_ring_base_ + idx * kNicTxDescSize, desc);
  if (!st.ok()) {
    tx_pipe_->Release();
    co_return;  // detached or failed mid-operation
  }
  uint64_t buf_addr = GetU64(desc.data());
  uint32_t len = GetU32(desc.data() + 8);
  uint64_t dst_mac = GetU64(desc.data() + 16);  // cookie field carries dst

  netsim::Frame frame;
  frame.src = mac_;
  frame.dst = dst_mac;
  frame.payload.resize(len);
  st = co_await DmaRead(buf_addr, frame.payload);
  if (st.ok()) {
    co_await sim::Delay(loop(), config_.tx_per_packet);
    if (link_up_ && network_ != nullptr && !EngineShouldExit(my_generation)) {
      // Serialize onto our wire, then hand to the fabric.
      Nanos done = wire_tx_.Acquire(loop().now(), frame.wire_size());
      co_await sim::WaitUntil(loop(), done);
      tx_frames_->Inc();
      tx_bytes_->Add(len);
      network_->Transmit(std::move(frame));
    } else {
      dropped_link_down_->Inc();
    }
  }
  ++tx_done_;
  if (tx_cpl_addr_ != 0 && !EngineShouldExit(my_generation)) {
    std::array<std::byte, 8> cpl;
    PutU64(cpl.data(), tx_done_);
    (void)co_await DmaWrite(tx_cpl_addr_, cpl);
  }
  tx_pipe_->Release();
}

sim::Task<> Nic::RxEngine(uint64_t my_generation) {
  // Buffer slots and completion sequence numbers are claimed serially (so
  // the driver sees an in-order completion ring); per-frame DMA runs
  // pipelined.
  while (!EngineShouldExit(my_generation)) {
    if (rx_pending_.empty()) {
      co_await rx_kick_.Wait();
      rx_kick_.Reset();
      continue;
    }
    netsim::Frame frame = std::move(rx_pending_.front());
    rx_pending_.pop_front();

    if (rx_head_ >= rx_tail_ || rx_ring_size_ == 0) {
      ++rx_dropped_;
      rx_dropped_no_buffer_->Inc();
      continue;
    }
    co_await rx_pipe_->Acquire();
    if (EngineShouldExit(my_generation)) {
      rx_pipe_->Release();
      co_return;
    }
    uint64_t idx = rx_head_ % rx_ring_size_;
    ++rx_head_;
    uint64_t seq = ++rx_completions_;
    sim::Spawn(RxOne(my_generation, idx, seq, std::move(frame)));
  }
}

sim::Task<> Nic::RxOne(uint64_t my_generation, uint64_t idx, uint64_t seq,
                       netsim::Frame frame) {
  std::array<std::byte, kNicRxDescSize> desc;
  Status st = co_await DmaRead(rx_ring_base_ + idx * kNicRxDescSize, desc);
  if (!st.ok()) {
    rx_pipe_->Release();
    co_return;
  }
  uint64_t buf_addr = GetU64(desc.data());
  uint32_t buf_len = GetU32(desc.data() + 8);
  uint32_t len = static_cast<uint32_t>(frame.payload.size());
  if (len > buf_len) {
    // Oversized frame for the posted buffer: drop, but still publish a
    // zero-length completion — the sequence number was claimed and the
    // driver must be able to recycle the buffer.
    ++rx_dropped_;
    rx_dropped_no_buffer_->Inc();
    std::array<std::byte, kNicRxCplSize> cpl{};
    PutU64(cpl.data(), seq);
    PutU32(cpl.data() + 8, static_cast<uint32_t>(idx));
    PutU32(cpl.data() + 12, 0);
    uint64_t cpl_addr = rx_cpl_base_ + ((seq - 1) % rx_ring_size_) * kNicRxCplSize;
    (void)co_await DmaWrite(cpl_addr, cpl);
    rx_pipe_->Release();
    co_return;
  }

  co_await sim::Delay(loop(), config_.rx_per_packet);
  st = co_await DmaWrite(buf_addr, frame.payload);
  if (st.ok() && !EngineShouldExit(my_generation)) {
    // Publish the completion entry; seq is written with the payload in one
    // 64 B line so the driver's poll sees a consistent record.
    std::array<std::byte, kNicRxCplSize> cpl{};
    PutU64(cpl.data(), seq);
    PutU32(cpl.data() + 8, static_cast<uint32_t>(idx));
    PutU32(cpl.data() + 12, len);
    uint64_t cpl_addr = rx_cpl_base_ + ((seq - 1) % rx_ring_size_) * kNicRxCplSize;
    st = co_await DmaWrite(cpl_addr, cpl);
    if (st.ok()) {
      rx_frames_->Inc();
      rx_bytes_->Add(len);
    }
  }
  rx_pipe_->Release();
}

}  // namespace cxlpool::devices
