#include "src/msg/submit.h"

#include <algorithm>
#include <memory>

#include "src/common/check.h"

namespace cxlpool::msg {

namespace {
// Fires `ev` after `delay`; holds shared ownership so the waiter may
// resume (and drop its reference) before the timer lapses.
sim::Task<> NagleTimer(sim::EventLoop& loop, Nanos delay,
                       std::shared_ptr<sim::Event> ev) {
  co_await sim::Delay(loop, delay);
  ev->Set();
}
}  // namespace

size_t MpscSubmitter::StagedData() const {
  size_t n = 0;
  for (const Ticket* t : staged_) {
    if (t->priority != kPriorityControl) {
      ++n;
    }
  }
  return n;
}

sim::Task<Status> MpscSubmitter::Submit(std::span<const std::byte> payload,
                                        uint8_t priority) {
  if (priority != kPriorityControl && options_.max_staged > 0 &&
      StagedData() >= options_.max_staged) {
    rejected_->Inc();
    co_return Overloaded("submission front staging bound");
  }
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
  // A drainer in its Nagle fill wait flushes early once the batch fills.
  if (fill_wake_ != nullptr && staged_.size() >= options_.watermark) {
    fill_wake_->Set();
  }

  if (!draining_) {
    // Single-atomic-claim: first stager takes the drainer role.
    draining_ = true;
    co_await Drain(&ticket, /*fresh=*/true);
    co_return ticket.result;
  }
  co_await ticket.wake.Wait();
  if (ticket.finished) {
    co_return ticket.result;
  }
  // Woken to inherit the drainer role from a finished predecessor. The
  // inherited drain skips the Nagle fill wait: this frame already aged in
  // the staging queue, so max_delay stays the per-frame latency bound.
  CXLPOOL_CHECK(ticket.drainer);
  co_await Drain(&ticket, /*fresh=*/false);
  co_return ticket.result;
}

sim::Task<> MpscSubmitter::Drain(Ticket* self, bool fresh) {
  sim::EventLoop& loop = sender_.host().loop();
  if (fresh && options_.max_delay > 0 && staged_.size() < options_.watermark) {
    // Nagle: bounded wait for the batch to fill, cut short the moment the
    // watermark is reached. max_delay IS the hard latency bound — we
    // flush whatever is staged when it elapses.
    nagle_waits_->Inc();
    auto filled = std::make_shared<sim::Event>(loop);
    fill_wake_ = filled.get();
    sim::Spawn(NagleTimer(loop, options_.max_delay, filled));
    co_await filled->Wait();
    fill_wake_ = nullptr;
  }
  while (true) {
    CXLPOOL_CHECK(!staged_.empty());  // self stays staged until sent
    size_t n = std::min<size_t>(staged_.size(), options_.watermark);
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
