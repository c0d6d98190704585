#include "src/msg/coalesce.h"

#include <algorithm>
#include <utility>

namespace cxlpool::msg {

DoorbellCoalescer::State::State(sim::EventLoop& l, const obs::Scope& scope)
    : loop(l),
      offered(scope.GetCounter("coalesce.offered")),
      rings(scope.GetCounter("coalesce.rings")),
      coalesced(scope.GetCounter("coalesce.coalesced")),
      watermark_flushes(scope.GetCounter("coalesce.watermark_flushes")),
      deadline_flushes(scope.GetCounter("coalesce.deadline_flushes")),
      forced_flushes(scope.GetCounter("coalesce.forced_flushes")),
      skipped_stale(scope.GetCounter("coalesce.skipped_stale")) {}

DoorbellCoalescer::DoorbellCoalescer(sim::EventLoop& loop, RingFn ring,
                                     Options options, const obs::Scope& scope)
    : options_(options), state_(std::make_shared<State>(loop, scope)) {
  if (options_.watermark == 0) {
    options_.watermark = 1;
  }
  state_->ring = std::move(ring);
}

DoorbellCoalescer::~DoorbellCoalescer() { state_->closed = true; }

sim::Task<Status> DoorbellCoalescer::FlushNow(std::shared_ptr<State> s) {
  if (!s->dirty) {
    co_return OkStatus();
  }
  uint64_t value = s->pending;
  uint64_t folded = s->since_flush;
  s->dirty = false;
  s->since_flush = 0;
  if (value <= s->last_rung) {
    // Nothing beyond what the consumer already saw — e.g. a forced flush
    // racing a watermark flush. Ringing a non-advancing value would break
    // the monotone contract, so drop it.
    s->skipped_stale->Inc();
    s->coalesced->Add(folded);
    co_return OkStatus();
  }
  s->rings->Inc();
  s->coalesced->Add(folded > 0 ? folded - 1 : 0);
  s->last_rung = value;
  // The ring fn is copied into this frame: `s` keeps the State alive, and
  // a coalescer destroyed mid-ring only flips `closed` (checked by the
  // timer path before entering here).
  RingFn ring = s->ring;
  co_return co_await ring(value);
}

sim::Task<> DoorbellCoalescer::DeadlineFlush(std::shared_ptr<State> s,
                                             Nanos delay) {
  co_await sim::Delay(s->loop, delay);
  s->timer_armed = false;
  if (s->closed || !s->dirty) {
    co_return;
  }
  s->deadline_flushes->Inc();
  // A dying CXL/MMIO path cannot be reported to anyone from a detached
  // timer; the next explicit Offer/Flush on the same path surfaces it.
  Status st = co_await FlushNow(s);
  (void)st;
}

sim::Task<Status> DoorbellCoalescer::Offer(uint64_t value) {
  State& s = *state_;
  s.offered->Inc();
  s.pending = std::max(s.pending, value);
  s.since_flush += 1;
  s.dirty = true;
  if (s.since_flush >= options_.watermark) {
    s.watermark_flushes->Inc();
    co_return co_await FlushNow(state_);
  }
  if (options_.max_delay > 0 && !s.timer_armed) {
    s.timer_armed = true;
    sim::Spawn(DeadlineFlush(state_, options_.max_delay));
  }
  co_return OkStatus();
}

sim::Task<Status> DoorbellCoalescer::Flush() {
  if (state_->dirty) {
    state_->forced_flushes->Inc();
  }
  co_return co_await FlushNow(state_);
}

void DoorbellCoalescer::Reset() {
  state_->pending = 0;
  state_->last_rung = 0;
  state_->since_flush = 0;
  state_->dirty = false;
}

}  // namespace cxlpool::msg
