// Shared-memory message ring over non-coherent CXL pool memory (paper
// §4.1: "The channel is implemented as a ring buffer, with each message
// slot sized at 64 B to match the cacheline granularity. It manages cache
// coherence in software by using non-temporal stores to send messages.")
//
// Wire layout of one ring (all in one pool segment):
//   [slot 0 .. slot N-1]    N x 64 B message slots
//   [consumer cursor]       one 64 B line holding a u64 consumed count
//
// Slot format (64 B):
//   u32 seq        message index + 1; the publish flag. A slot is valid
//                  for message k iff seq == k+1. Written last (the whole
//                  line goes out in one non-temporal store).
//   u16 chunk_len  payload bytes in this slot (<= 54)
//   u16 msg_len    total message bytes (set in every chunk)
//   u8  payload[54]
//
// Messages longer than one slot span consecutive slots (the common case —
// doorbells, control messages — is single-slot, which is the configuration
// measured in Figure 4).
//
// Coherence protocol:
//   sender:   StoreNt(slot)                      -> immediately visible
//   receiver: ReadFresh(slot)                    -> never reads stale seq
//   receiver: StoreNt(cursor) every N/4 messages -> flow control
//   sender:   ReadFresh(cursor) when the ring looks full
#ifndef SRC_MSG_RING_H_
#define SRC_MSG_RING_H_

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/cxl/host_adapter.h"
#include "src/sim/poll.h"
#include "src/sim/task.h"

namespace cxlpool::netsim {
class FaultPlane;
}  // namespace cxlpool::netsim

namespace cxlpool::msg {

inline constexpr uint64_t kSlotSize = kCachelineSize;
inline constexpr uint64_t kSlotHeaderSize = 10;  // seq(4) chunk_len(2) msg_len(2) + pad(2)
inline constexpr uint64_t kSlotPayload = kSlotSize - kSlotHeaderSize;  // 54
inline constexpr uint64_t kMaxMessageSize = 8 * kKiB;

// Bytes of pool memory a ring with `slots` slots occupies.
constexpr uint64_t RingFootprint(uint32_t slots) {
  return static_cast<uint64_t>(slots) * kSlotSize + kCachelineSize;
}

struct RingConfig {
  uint64_t base = 0;    // pool address of slot 0
  uint32_t slots = 64;  // must be a power of two
  // Receiver busy-poll cadence; decays by 2x to max while idle.
  Nanos poll_min = 100;
  Nanos poll_max = 2 * kMicrosecond;
  // Bound on how long Send waits for free slots while the ring is full.
  // 0 = wait forever (legacy). >0 turns a full ring into an explicit
  // kOverloaded after that much simulated time — the innermost
  // backpressure point of the whole forwarding path.
  Nanos full_wait = 0;
  // Directed fault injection (partitions / asymmetric / lossy links).
  // When set, every message the RECEIVER consumes is judged against the
  // plane's (src_host → dst_host) state AFTER its slots are reclaimed:
  // a dropped message vanishes without stalling the sender's seq/cursor
  // flow (sender-side dropping would wedge the SPSC publish protocol), a
  // duplicated one is delivered twice, and a delayed one is held past
  // later messages — which is also how reorder happens. nullptr (the
  // default) is the perfectly reliable legacy fabric, with zero cost.
  netsim::FaultPlane* fault_plane = nullptr;
  HostId src_host;  // the host publishing into this ring
  HostId dst_host;  // the host consuming it
};

// Producer endpoint. Exactly one sender and one receiver per ring (SPSC);
// the bidirectional Channel in channel.h pairs two rings.
// Counts the ring.* series declared with its members under the host's scope.
class RingSender {
 public:
  RingSender(cxl::HostAdapter& host, const RingConfig& config);

  // Publishes one message (<= kMaxMessageSize). Blocks (in simulated time)
  // while the ring is full — bounded by config.full_wait when nonzero, in
  // which case a still-full ring yields kOverloaded. Fails if the CXL path
  // is unhealthy.
  sim::Task<Status> Send(std::span<const std::byte> payload);

  // Publishes several messages with ONE space reservation (at most one
  // consumer-cursor refresh) and write-combined non-temporal stores: runs
  // of ring-contiguous slots go out as single multi-line StoreNt calls,
  // paying the first-line CXL write latency once and per_line_pipelined
  // for every further line. All-or-nothing on space: a ring that cannot
  // fit the whole batch within full_wait rejects it with kOverloaded.
  // Slots are published in order, so the receiver's valid-prefix scan
  // never observes message k+1 before message k.
  sim::Task<Status> SendBatch(std::span<const std::span<const std::byte>> payloads);

  cxl::HostAdapter& host() { return host_; }

 private:
  sim::Task<Status> WaitForSpace(uint32_t chunks_needed);

  cxl::HostAdapter& host_;
  RingConfig config_;
  uint64_t cursor_addr_;
  uint64_t head_ = 0;         // next slot index to write
  uint64_t cached_tail_ = 0;  // last observed consumer cursor
  sim::PollBackoff backoff_;
  // SendBatch calls with >= 2 messages, and the messages they published.
  obs::Counter* batch_sends_ = host_.metrics().GetCounter("ring.batch_sends");
  obs::Counter* batched_messages_ = host_.metrics().GetCounter("ring.batched_messages");
  // Write-combined StoreNt issues.
  obs::Counter* nt_store_runs_ = host_.metrics().GetCounter("ring.nt_store_runs");
  // Consumer-cursor ReadFresh calls.
  obs::Counter* cursor_refreshes_ = host_.metrics().GetCounter("ring.cursor_refreshes");
  // Sends refused with kOverloaded: the ring stayed full past full_wait.
  obs::Counter* full_rejects_ = host_.metrics().GetCounter("ring.full_rejects");
};

// Consumer endpoint. Counts the ring.* series declared with its members
// under the host's scope.
class RingReceiver {
 public:
  RingReceiver(cxl::HostAdapter& host, const RingConfig& config);

  // Receives the next message, waiting until `deadline` (absolute sim
  // time). Returns kDeadlineExceeded on timeout, kUnavailable if the CXL
  // path died. On success the message bytes are appended to *out.
  sim::Task<Status> Recv(std::vector<std::byte>* out, Nanos deadline);

  // Non-blocking single poll: kNotFound if no message is ready right now.
  // (Still charges the ReadFresh cost of inspecting the head slot.)
  sim::Task<Status> TryRecv(std::vector<std::byte>* out);

  uint64_t messages_received() const { return messages_; }
  cxl::HostAdapter& host() { return host_; }

 private:
  // The awaitable LoadSlot returns (defined in ring.cc). It has no frame:
  // it wraps the one HostAdapter::ReadFresh access it may make, so an idle
  // poll allocates nothing.
  class [[nodiscard]] SlotLoad;

  // Reads slot `index`'s line, serving from the cached burst window when
  // it covers the index; otherwise does one windowed ReadFresh and caches
  // the valid prefix. Resolves to seq. Await it at once: it plans the read
  // when called.
  SlotLoad LoadSlot(uint64_t index, std::array<std::byte, kSlotSize>* line);
  sim::Task<Status> PublishCursor();
  // Pops one full message whose first chunk line is already loaded.
  sim::Task<Status> ConsumeMessage(std::array<std::byte, kSlotSize> first_line,
                                   std::vector<std::byte>* out);
  // True when a fault plane is wired AND carries at least one edge — the
  // per-message Judge cost is only paid while faults are live.
  bool FaultActive() const;
  // Delivers a stashed duplicate or matured delayed message, if any.
  bool DeliverStashed(std::vector<std::byte>* out);
  // Judges the just-consumed scratch_ message; true = appended to *out
  // (possibly also stashed as a duplicate), false = dropped or delayed.
  bool JudgeConsumed(std::vector<std::byte>* out);
  // Earliest release among delayed messages, or 0 when none pending.
  Nanos NextDelayedRelease() const;

  cxl::HostAdapter& host_;
  RingConfig config_;
  uint64_t cursor_addr_;
  uint64_t tail_ = 0;  // next slot index to read
  uint64_t messages_ = 0;
  uint64_t last_published_cursor_ = 0;
  // Burst-drain cache: slots [win_start_, win_start_ + win_valid_) were
  // observed published (seq == index+1) by one windowed load. Published
  // slots are immutable until the consumer cursor passes them, so these
  // bytes can be consumed without touching the pool again. Slots that
  // were NOT yet published are never cached — they must be re-read.
  std::vector<std::byte> window_;
  uint64_t win_start_ = 0;
  uint32_t win_valid_ = 0;
  // Adaptive window size in [1, kRecvWindow]: doubles after a fully-valid
  // scan (a burst is in progress — wider loads amortize), shrinks back to
  // 1 after a scan that found at most one slot (ping-pong / idle, where
  // extra lines per load would only add pipelined-read latency).
  uint32_t cur_window_ = 1;
  sim::PollBackoff backoff_;
  // Fault-plane stashes: a consumed message judged kDuplicate is
  // redelivered from dup_pending_ on the next receive; one judged kDelay
  // waits in delayed_ until its release time (delivered before any new
  // ring message, earliest release first — stable on ties).
  std::vector<std::byte> scratch_;
  std::deque<std::vector<std::byte>> dup_pending_;
  std::vector<std::pair<Nanos, std::vector<std::byte>>> delayed_;
  // Windowed ReadFresh rounds, and slots consumed from the cached window.
  obs::Counter* window_loads_ = host_.metrics().GetCounter("ring.window_loads");
  obs::Counter* window_hits_ = host_.metrics().GetCounter("ring.window_hits");
  // Fault-plane outcomes this receiver applied.
  obs::Counter* faults_dropped_ = host_.metrics().GetCounter("ring.faults_dropped");
  obs::Counter* faults_duplicated_ = host_.metrics().GetCounter("ring.faults_duplicated");
  obs::Counter* faults_delayed_ = host_.metrics().GetCounter("ring.faults_delayed");
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_RING_H_
