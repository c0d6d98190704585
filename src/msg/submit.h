// MPSC submission front for a RingSender: many producer coroutines feed
// one SPSC ring without convoying behind each other's CXL stores.
//
// The ring itself must stay single-producer (slot seqs are claimed from a
// shared head across suspension points), so production is funneled through
// a staging queue with a single drainer — the sim-term equivalent of a
// lock-free MPSC submission ring with one consumer-side combiner:
//
//   * Submit() stages a ticket (claiming a staging slot is the single-
//     atomic-claim step) and the first stager becomes the DRAINER.
//   * The drainer folds up to `watermark` staged frames into one
//     RingSender::SendBatch — one space reservation, write-combined
//     nt-stores — then completes those tickets.
//   * When the drainer's own frame has been sent it hands the drainer
//     role to the owner of the oldest still-staged ticket instead of
//     finishing everyone's work itself (no head-of-line producer pays for
//     the whole convoy).
//
// Batching is opportunistic by default: a lone producer drains itself
// immediately (batch of one, zero added latency); concurrent producers
// stage while the drainer's SendBatch is in flight and get folded into
// the next batch. `max_delay` adds a Nagle-style bounded wait for the
// batch to fill — the hard latency bound is max_delay itself, so the knob
// trades exactly that much p50 for fewer, larger CXL bursts.
//
// Control-priority frames jump ahead of staged data frames (never ahead
// of earlier control) and are exempt from the staging bound, mirroring
// the RPC turn queue's guarantees end to end.
#ifndef SRC_MSG_SUBMIT_H_
#define SRC_MSG_SUBMIT_H_

#include <deque>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/msg/backpressure.h"
#include "src/msg/ring.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace cxlpool::msg {

class MpscSubmitter {
 public:
  struct Options {
    // Max frames folded into one SendBatch; also the fill target the
    // Nagle delay waits for. Clamped to >= 1.
    uint32_t watermark = 8;
    // Bounded wait for the batch to fill before flushing anyway. 0 =
    // flush immediately (batching still happens opportunistically while
    // a previous batch's stores are in flight). This is the hard latency
    // bound: no staged frame ever waits longer than max_delay before its
    // batch is pushed to the ring.
    Nanos max_delay = 0;
    // Bound on staged data-priority frames; 0 = unbounded. Overflow is
    // refused with kOverloaded (control is exempt, like the RPC queue).
    uint32_t max_staged = 0;
  };

  // Counts the submit.* series declared with its members under the sender
  // host's scope.
  MpscSubmitter(RingSender& sender, Options options)
      : sender_(sender), options_(options) {
    if (options_.watermark == 0) {
      options_.watermark = 1;
    }
  }
  explicit MpscSubmitter(RingSender& sender)
      : MpscSubmitter(sender, Options()) {}

  // Publishes one frame. The payload must stay alive until Submit
  // returns (callers await it, so their frame owns the bytes — no copy).
  // Returns the ring send status; kOverloaded when the staging bound or
  // the ring's full_wait rejects the frame.
  sim::Task<Status> Submit(std::span<const std::byte> payload,
                           uint8_t priority = kPriorityData);

  size_t staged() const { return staged_.size(); }
  RingSender& sender() { return sender_; }

 private:
  struct Ticket {
    explicit Ticket(sim::EventLoop& loop) : wake(loop) {}
    std::span<const std::byte> payload;
    uint8_t priority = kPriorityData;
    sim::Event wake;       // completion OR drainer-role handoff
    Status result;
    bool finished = false; // result is final
    bool drainer = false;  // woken to take over draining
  };

  sim::Task<> Drain(Ticket* self, bool fresh);
  size_t StagedData() const;

  RingSender& sender_;
  Options options_;
  std::deque<Ticket*> staged_;
  bool draining_ = false;
  // Set while a fresh drainer sits in its Nagle fill wait; staging the
  // watermark-th frame fires it to flush early.
  sim::Event* fill_wake_ = nullptr;
  const obs::Scope& metrics_ = sender_.host().metrics();
  obs::Counter* submitted_ = metrics_.GetCounter("submit.submitted");
  // Drainer role passed to a follower.
  obs::Counter* handoffs_ = metrics_.GetCounter("submit.handoffs");
  // Staging-bound refusals.
  obs::Counter* rejected_ = metrics_.GetCounter("submit.rejected");
  // Bounded fills awaited.
  obs::Counter* nagle_waits_ = metrics_.GetCounter("submit.nagle_waits");
  // Frames per drain round pushed to the ring: its count is the rounds,
  // its max the largest round.
  sim::Histogram* batch_frames_ = metrics_.GetHistogram("submit.batch_frames");
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_SUBMIT_H_
