#include "src/msg/coalesce.h"

#include <algorithm>
#include <utility>

namespace cxlpool::msg {

DoorbellCoalescer::DoorbellCoalescer(RingFn ring, uint32_t watermark,
                                     const obs::Scope& scope)
    : ring_(std::move(ring)),
      watermark_(std::max<uint32_t>(1, watermark)),
      offered_(scope.GetCounter("coalesce.offered")),
      rings_(scope.GetCounter("coalesce.rings")),
      coalesced_(scope.GetCounter("coalesce.coalesced")),
      watermark_flushes_(scope.GetCounter("coalesce.watermark_flushes")),
      forced_flushes_(scope.GetCounter("coalesce.forced_flushes")),
      skipped_stale_(scope.GetCounter("coalesce.skipped_stale")) {}

sim::Task<Status> DoorbellCoalescer::FlushNow() {
  if (!dirty_) {
    co_return OkStatus();
  }
  uint64_t value = pending_;
  uint64_t folded = since_flush_;
  dirty_ = false;
  since_flush_ = 0;
  if (value <= last_rung_) {
    // Nothing beyond what the consumer already saw — e.g. a forced flush
    // racing a watermark flush. Ringing a non-advancing value would break
    // the monotone contract, so drop it.
    skipped_stale_->Inc();
    coalesced_->Add(folded);
    co_return OkStatus();
  }
  rings_->Inc();
  coalesced_->Add(folded > 0 ? folded - 1 : 0);
  last_rung_ = value;
  // The ring fn is copied into this frame and no member is touched after
  // the ring's co_await, so the ring may outlive the coalescer.
  RingFn ring = ring_;
  co_return co_await ring(value);
}

sim::Task<Status> DoorbellCoalescer::Offer(uint64_t value) {
  offered_->Inc();
  pending_ = std::max(pending_, value);
  since_flush_ += 1;
  dirty_ = true;
  if (since_flush_ >= watermark_) {
    watermark_flushes_->Inc();
    co_return co_await FlushNow();
  }
  co_return OkStatus();
}

sim::Task<Status> DoorbellCoalescer::Flush() {
  if (dirty_) {
    forced_flushes_->Inc();
  }
  co_return co_await FlushNow();
}

void DoorbellCoalescer::Reset() {
  pending_ = 0;
  last_rung_ = 0;
  since_flush_ = 0;
  dirty_ = false;
}

}  // namespace cxlpool::msg
