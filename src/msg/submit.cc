#include "src/msg/submit.h"

#include <algorithm>

#include "src/common/check.h"

namespace cxlpool::msg {

sim::Task<Status> MpscSubmitter::Submit(std::span<const std::byte> payload,
                                        uint8_t priority) {
  submitted_->Inc();
  Ticket ticket(sender_.host().loop());
  ticket.payload = payload;
  ticket.priority = priority;
  if (priority == kPriorityControl) {
    // Ahead of every staged data frame, behind earlier control: control
    // stays FIFO among itself but never queues behind a data burst.
    auto pos = std::find_if(
        staged_.begin(), staged_.end(),
        [](const Ticket* t) { return t->priority != kPriorityControl; });
    staged_.insert(pos, &ticket);
  } else {
    staged_.push_back(&ticket);
  }

  if (!draining_) {
    // Single-atomic-claim: first stager takes the drainer role.
    draining_ = true;
    co_await Drain(&ticket);
    co_return ticket.result;
  }
  co_await ticket.wake.Wait();
  if (ticket.finished) {
    co_return ticket.result;
  }
  // Woken to inherit the drainer role from a finished predecessor.
  CXLPOOL_CHECK(ticket.drainer);
  co_await Drain(&ticket);
  co_return ticket.result;
}

sim::Task<> MpscSubmitter::Drain(Ticket* self) {
  while (true) {
    CXLPOOL_CHECK(!staged_.empty());  // self stays staged until sent
    size_t n = std::min<size_t>(staged_.size(), kWatermark);
    std::vector<Ticket*> batch(staged_.begin(), staged_.begin() + n);
    staged_.erase(staged_.begin(), staged_.begin() + n);
    std::vector<std::span<const std::byte>> frames;
    frames.reserve(n);
    for (Ticket* t : batch) {
      frames.push_back(t->payload);
    }
    Status st = co_await sender_.SendBatch(frames);
    batch_frames_->Add(static_cast<int64_t>(n));
    bool self_done = false;
    for (Ticket* t : batch) {
      t->result = st;
      t->finished = true;
      if (t == self) {
        self_done = true;
      } else {
        t->wake.Set();
      }
    }
    if (!self_done) {
      continue;  // keep draining until our own frame is on the wire
    }
    // Our frame is sent: hand the drainer role to the oldest still-staged
    // ticket instead of staying to finish the whole convoy.
    if (staged_.empty()) {
      draining_ = false;
    } else {
      handoffs_->Inc();
      staged_.front()->drainer = true;
      staged_.front()->wake.Set();
    }
    co_return;
  }
}

}  // namespace cxlpool::msg
