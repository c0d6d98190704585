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
//   * The drainer folds up to kWatermark staged frames into one
//     RingSender::SendBatch — one space reservation, write-combined
//     nt-stores — then completes those tickets.
//   * When the drainer's own frame has been sent it hands the drainer
//     role to the owner of the oldest still-staged ticket instead of
//     finishing everyone's work itself (no head-of-line producer pays for
//     the whole convoy).
//
// Batching is opportunistic: a lone producer drains itself immediately
// (batch of one, zero added latency); concurrent producers stage while the
// drainer's SendBatch is in flight and get folded into the next batch.
//
// Control-priority frames jump ahead of staged data frames (never ahead
// of earlier control), mirroring the RPC turn queue's guarantees end to
// end.
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
  // Max frames folded into one SendBatch.
  static constexpr uint32_t kWatermark = 8;

  // Counts the submit.* series declared with its members under the sender
  // host's scope.
  explicit MpscSubmitter(RingSender& sender) : sender_(sender) {}

  // Publishes one frame. The payload must stay alive until Submit
  // returns (callers await it, so their frame owns the bytes — no copy).
  // Returns the ring send status; kOverloaded when the ring's full_wait
  // rejects the frame.
  sim::Task<Status> Submit(std::span<const std::byte> payload,
                           uint8_t priority = kPriorityData);

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

  sim::Task<> Drain(Ticket* self);

  RingSender& sender_;
  std::deque<Ticket*> staged_;
  bool draining_ = false;
  const obs::Scope& metrics_ = sender_.host().metrics();
  obs::Counter* submitted_ = metrics_.GetCounter("submit.submitted");
  // Drainer role passed to a follower.
  obs::Counter* handoffs_ = metrics_.GetCounter("submit.handoffs");
  // Frames per drain round pushed to the ring: its count is the rounds,
  // its max the largest round.
  sim::Histogram* batch_frames_ = metrics_.GetHistogram("submit.batch_frames");
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_SUBMIT_H_
