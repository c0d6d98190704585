// Bidirectional host-to-host channel: a pair of SPSC rings in shared CXL
// pool memory. This is the paper's sub-microsecond communication mechanism
// used to forward device-memory operations (MMIO, doorbells) from remote
// hosts to the host a PCIe device is physically attached to.
#ifndef SRC_MSG_CHANNEL_H_
#define SRC_MSG_CHANNEL_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/cxl/host_adapter.h"
#include "src/cxl/pool.h"
#include "src/msg/ring.h"
#include "src/msg/submit.h"

namespace cxlpool::msg {

// One side of a channel: sends on one ring, receives on the other.
//
// Sends are routed through an MPSC submission front: any number of
// producer coroutines may call Send concurrently (the underlying SPSC
// ring is fed by a single drainer that write-combines staged frames into
// batched nt-stores). A lone producer drains itself immediately, so the
// single-producer cost is unchanged. Code outside src/msg must use this
// path, never RingSender::Send directly (enforced by simlint's
// direct-ring-send rule) — concurrent direct sends corrupt the shared
// head across suspension points.
class Endpoint {
 public:
  Endpoint(cxl::HostAdapter& host, const RingConfig& tx, const RingConfig& rx)
      : sender_(host, tx), receiver_(host, rx), submitter_(sender_) {}

  // `priority` orders the frame within the submission front only (control
  // jumps staged data frames); it does not reach the wire — RPC priority
  // rides in the frame header.
  sim::Task<Status> Send(std::span<const std::byte> payload,
                         uint8_t priority = kPriorityData) {
    return submitter_.Submit(payload, priority);
  }
  sim::Task<Status> Recv(std::vector<std::byte>* out, Nanos deadline) {
    return receiver_.Recv(out, deadline);
  }
  sim::Task<Status> TryRecv(std::vector<std::byte>* out) {
    return receiver_.TryRecv(out);
  }

  RingSender& sender() { return sender_; }
  RingReceiver& receiver() { return receiver_; }
  MpscSubmitter& submitter() { return submitter_; }
  cxl::HostAdapter& host() { return sender_.host(); }
  sim::EventLoop& loop() { return sender_.host().loop(); }

 private:
  RingSender sender_;
  RingReceiver receiver_;
  MpscSubmitter submitter_;
};

// A channel between two hosts of the same pod, backed by one pool segment.
class Channel {
 public:
  struct Options {
    uint32_t slots = 64;
    Nanos poll_min = 100;
    Nanos poll_max = 2 * kMicrosecond;
    // Bounded-send policy for both rings: how long a Send may wait on a
    // full ring before failing with kOverloaded. 0 = wait forever.
    Nanos full_wait = 0;
  };

  // Allocates pool memory and builds both endpoints.
  static Result<std::unique_ptr<Channel>> Create(cxl::CxlPool& pool,
                                                 cxl::HostAdapter& a,
                                                 cxl::HostAdapter& b,
                                                 Options options);
  static Result<std::unique_ptr<Channel>> Create(cxl::CxlPool& pool,
                                                 cxl::HostAdapter& a,
                                                 cxl::HostAdapter& b) {
    return Create(pool, a, b, Options{});
  }

  Endpoint& end_a() { return *end_a_; }
  Endpoint& end_b() { return *end_b_; }
  const cxl::PoolSegment& segment() const { return segment_; }

 private:
  Channel() = default;

  cxl::PoolSegment segment_;
  std::unique_ptr<Endpoint> end_a_;
  std::unique_ptr<Endpoint> end_b_;
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_CHANNEL_H_
