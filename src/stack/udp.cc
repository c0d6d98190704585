#include "src/stack/udp.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/msg/wire.h"

namespace cxlpool::stack {

using msg::wire::GetU16;
using msg::wire::GetU64;
using msg::wire::PutU16;
using msg::wire::PutU64;

sim::EventLoop& UdpSocket::Loop() { return stack_->host().loop(); }

sim::Task<Result<Datagram>> UdpSocket::Recv(Nanos deadline) {
  sim::EventLoop& loop = stack_->host().loop();
  sim::PollBackoff backoff(100, 500);
  for (;;) {
    Datagram d;
    if (rx_queue_.TryPop(&d)) {
      co_return d;
    }
    Nanos now = loop.now();
    if (now >= deadline) {
      co_return DeadlineExceeded("no datagram before deadline");
    }
    co_await sim::Delay(loop, std::min(backoff.NextDelay(), deadline - now));
  }
}

sim::Task<Status> UdpSocket::SendTo(netsim::MacAddr dst_mac, uint16_t dst_port,
                                    std::span<const std::byte> payload) {
  UdpStack& stack = *stack_;
  if (payload.size() + kUdpHeaderSize > stack.pool().buffer_size()) {
    co_return InvalidArgument("datagram exceeds buffer size");
  }
  CO_RETURN_IF_ERROR(co_await stack.ReclaimTxBuffers(/*force_refresh=*/false));
  auto buf = stack.pool().Alloc();
  if (!buf.ok()) {
    // Out of buffers: force a fresh completion read and retry once.
    CO_RETURN_IF_ERROR(co_await stack.ReclaimTxBuffers(/*force_refresh=*/true));
    buf = stack.pool().Alloc();
    if (!buf.ok()) {
      stack.tx_no_buffer_->Inc();
      co_return buf.status();
    }
  }

  std::vector<std::byte> frame(kUdpHeaderSize + payload.size());
  PutU16(frame.data(), dst_port);
  PutU16(frame.data() + 2, port_);
  PutU64(frame.data() + 4, stack.mac());
  std::copy(payload.begin(), payload.end(), frame.begin() + kUdpHeaderSize);

  // Publish payload bytes with placement-correct coherence, then hand the
  // buffer to the NIC.
  CO_RETURN_IF_ERROR(co_await stack.pool().memory().Publish(*buf, frame));
  Status st = co_await stack.vnic().SendFrame(dst_mac, *buf,
                                              static_cast<uint32_t>(frame.size()));
  if (!st.ok()) {
    stack.pool().Free(*buf);
    co_return st;
  }
  stack.inflight_tx_.push_back(*buf);
  stack.tx_datagrams_->Inc();
  co_return OkStatus();
}

UdpStack::UdpStack(cxl::HostAdapter& host, core::VirtualNic* vnic, BufferPool* pool,
                   netsim::MacAddr mac, Config config)
    : host_(host), vnic_(vnic), pool_(pool), mac_(mac), config_(config) {
  CXLPOOL_CHECK(vnic != nullptr && pool != nullptr);
}

sim::Task<Status> UdpStack::Start(sim::StopToken& stop) {
  CO_RETURN_IF_ERROR(co_await PostRxBuffers());
  sim::Spawn(IoLoop(stop));
  for (int i = 0; i < config_.worker_cores; ++i) {
    sim::Spawn(Worker(stop));
  }
  co_return OkStatus();
}

Result<UdpSocket*> UdpStack::Bind(uint16_t port) {
  if (sockets_.contains(port)) {
    return AlreadyExists("port in use");
  }
  auto socket = std::make_unique<UdpSocket>(this, port, host_.loop());
  UdpSocket* raw = socket.get();
  sockets_.emplace(port, std::move(socket));
  return raw;
}

sim::Task<Status> UdpStack::PostRxBuffers() {
  while (posted_rx_.size() < config_.rx_buffers) {
    auto buf = pool_->Alloc();
    if (!buf.ok()) {
      break;  // pool drained; keep what we have
    }
    uint64_t migrations = migrations_;
    Status st = co_await vnic_->PostRxBuffer(*buf, pool_->buffer_size());
    if (!st.ok() && migrations != migrations_) {
      // A migration rebound the NIC mid-post (kAborted): the buffer is on
      // no live ring, and HandleMigration re-posts the ring itself.
      pool_->Free(*buf);
      co_return OkStatus();
    }
    CO_RETURN_IF_ERROR(st);
    posted_rx_.push_back(*buf);
  }
  co_return co_await vnic_->FlushRxDoorbell();
}

sim::Task<Status> UdpStack::ReclaimTxBuffers(bool force_refresh) {
  uint64_t completed = vnic_->tx_completed_cache();
  if (force_refresh) {
    auto fresh = co_await vnic_->TxCompleted();
    if (!fresh.ok()) {
      co_return fresh.status();
    }
    completed = *fresh;
  }
  while (tx_reclaimed_ < completed && !inflight_tx_.empty()) {
    pool_->Free(inflight_tx_.front());
    inflight_tx_.erase(inflight_tx_.begin());
    ++tx_reclaimed_;
  }
  co_return OkStatus();
}

sim::Task<> UdpStack::IoLoop(sim::StopToken& stop) {
  // Dispatcher core: drains NIC completions into the work queue and keeps
  // the RX ring fed; workers do the per-packet processing.
  while (!stop.stopped()) {
    auto ev = co_await vnic_->PollRx(host_.loop().now() + kRxPollSlice);
    if (!ev.ok()) {
      if (ev.status().code() == StatusCode::kDeadlineExceeded) {
        // Idle slice: harvest TX completions so buffers parked in
        // inflight_tx_ flow back even when nobody is calling SendTo.
        Status st = co_await ReclaimTxBuffers(/*force_refresh=*/true);
        if (st.ok()) {
          st = co_await PostRxBuffers();
        }
        if (!st.ok()) {
          co_return;
        }
        continue;
      }
      co_return;  // NIC path died; a migration will restart traffic
    }
    auto pos = std::find(posted_rx_.begin(), posted_rx_.end(), ev->buf_addr);
    if (pos != posted_rx_.end()) {
      posted_rx_.erase(pos);
    }
    work_.push_back(*ev);
    if (posted_rx_.size() < config_.rx_buffers && pool_->available() == 0) {
      // RX ring is draining the pool dry; pull back completed TX buffers.
      Status st = co_await ReclaimTxBuffers(/*force_refresh=*/true);
      if (!st.ok()) {
        co_return;
      }
    }
    Status st = co_await PostRxBuffers();
    if (!st.ok()) {
      co_return;
    }
  }
}

sim::Task<> UdpStack::Worker(sim::StopToken& stop) {
  sim::PollBackoff backoff(100, 400);
  while (!stop.stopped()) {
    if (work_.empty()) {
      co_await sim::Delay(host_.loop(), backoff.NextDelay());
      continue;
    }
    backoff.Reset();
    core::VirtualNic::RxEvent ev = work_.front();
    work_.pop_front();
    co_await ProcessFrame(ev);
  }
}

sim::Task<> UdpStack::ProcessFrame(core::VirtualNic::RxEvent ev) {
  // Stack processing cost (header parse, socket demux, bookkeeping).
  co_await sim::Delay(host_.loop(), kPerPacketCpu);

  // Pull the datagram out of the receive buffer with fresh reads (the
  // NIC DMA-wrote it; a cached copy would be stale in CXL placement).
  std::vector<std::byte> bytes(ev.len);
  Status st = co_await pool_->memory().ReadFresh(ev.buf_addr, bytes);
  pool_->Free(ev.buf_addr);
  if (!st.ok()) {
    co_return;
  }
  if (bytes.size() < kUdpHeaderSize) {
    co_return;  // runt frame
  }
  uint16_t dst_port = GetU16(bytes.data());
  auto it = sockets_.find(dst_port);
  if (it == sockets_.end()) {
    rx_no_socket_->Inc();
    co_return;
  }
  Datagram d;
  d.src_port = GetU16(bytes.data() + 2);
  d.src_mac = GetU64(bytes.data() + 4);
  d.payload.assign(bytes.begin() + kUdpHeaderSize, bytes.end());
  rx_datagrams_->Inc();
  it->second->rx_queue_.Push(std::move(d));
}

sim::Task<Status> UdpStack::HandleMigration(std::unique_ptr<core::MmioPath> new_path) {
  ++migrations_;
  CO_RETURN_IF_ERROR(co_await vnic_->Rebind(std::move(new_path)));
  // The old NIC no longer owns any buffers; reclaim everything.
  for (uint64_t addr : posted_rx_) {
    pool_->Free(addr);
  }
  posted_rx_.clear();
  for (uint64_t addr : inflight_tx_) {
    pool_->Free(addr);
  }
  inflight_tx_.clear();
  tx_reclaimed_ = 0;
  co_return co_await PostRxBuffers();
}

}  // namespace cxlpool::stack
