// A shared-memory doorbell: one 64 B pool line carrying a monotonically
// increasing u64. Ringing is a single non-temporal store; watching is a
// ReadFresh (invalidate, then load) poll. Cheaper than a ring when the
// only information is "progress advanced to N" — e.g. queue tail
// pointers mirrored into CXL.
#ifndef SRC_MSG_DOORBELL_H_
#define SRC_MSG_DOORBELL_H_

#include <array>

#include "src/common/status.h"
#include "src/cxl/host_adapter.h"
#include "src/msg/wire.h"
#include "src/obs/trace.h"
#include "src/sim/poll.h"
#include "src/sim/task.h"

namespace cxlpool::msg {

class DoorbellSender {
 public:
  DoorbellSender(cxl::HostAdapter& host, uint64_t line_addr)
      : host_(host), addr_(line_addr) {}

  // Declares the data region this doorbell publishes progress over. When
  // set, every Ring is a coherence handoff point: the region must hold no
  // unpublished (dirty cached) lines of the ringing host at that moment
  // (checked by analysis::CoherenceChecker when one is attached).
  void SetAnnouncedRegion(uint64_t base, uint64_t len) {
    region_base_ = base;
    region_len_ = len;
  }

  // Enables the doorbell.ring span when Ring is called with a traced
  // parent context.
  void BindTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Publishes `value` (callers use monotonically increasing values).
  // Must be a coroutine: `buf` has to outlive the suspended StoreNt task,
  // so it lives in this frame, not on a stack that unwinds immediately.
  // `ctx` attaches the ring's nt-store to the operation that caused it
  // (e.g. a queue-pair submit).
  sim::Task<Status> Ring(uint64_t value, obs::TraceContext ctx = {}) {
    if (region_len_ != 0) {
      host_.NoteHandoff(region_base_, region_len_, "doorbell-ring");
    }
    obs::Span span = obs::MaybeStartSpan(
        tracer_, "doorbell.ring", host_.id().value(), ctx, host_.loop().now());
    // Pin the loop into this frame: the sender may be destroyed while the
    // store is in flight, so no member access after the co_await.
    sim::EventLoop& loop = host_.loop();
    std::array<std::byte, 8> buf;
    wire::PutU64(buf.data(), value);
    Status st = co_await host_.StoreNt(addr_, buf);
    span.End(loop.now());
    co_return st;
  }

 private:
  cxl::HostAdapter& host_;
  uint64_t addr_;
  uint64_t region_base_ = 0;
  uint64_t region_len_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

class DoorbellWatcher {
 public:
  DoorbellWatcher(cxl::HostAdapter& host, uint64_t line_addr,
                  Nanos poll_min = 100, Nanos poll_max = 2 * kMicrosecond)
      : host_(host), addr_(line_addr), backoff_(poll_min, poll_max) {}

  // Single fresh read of the doorbell value.
  sim::Task<Result<uint64_t>> ReadValue() {
    std::array<std::byte, 8> buf;
    Status st = co_await host_.ReadFresh(addr_, buf);
    if (!st.ok()) {
      co_return st;
    }
    co_return wire::GetU64(buf.data());
  }

  // Waits until the doorbell value exceeds `last_seen` or `deadline` hits.
  sim::Task<Result<uint64_t>> WaitBeyond(uint64_t last_seen, Nanos deadline) {
    for (;;) {
      auto v = co_await ReadValue();
      if (!v.ok()) {
        backoff_.Reset();
        co_return v.status();
      }
      if (*v > last_seen) {
        backoff_.Reset();
        co_return *v;
      }
      Nanos now = host_.loop().now();
      if (now >= deadline) {
        // Reset on EVERY exit, not just success: a watcher that timed out
        // at max backoff would otherwise start its next (unrelated) wait
        // at max poll interval and see the first advance up to poll_max
        // late — first-poll latency must not depend on the previous
        // wait's outcome.
        backoff_.Reset();
        co_return DeadlineExceeded("doorbell unchanged");
      }
      co_await sim::Delay(host_.loop(), std::min(backoff_.NextDelay(), deadline - now));
    }
  }

 private:
  cxl::HostAdapter& host_;
  uint64_t addr_;
  sim::PollBackoff backoff_;
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_DOORBELL_H_
