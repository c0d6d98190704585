// DoorbellCoalescer: folds N pending doorbell rings into one non-temporal
// store of the maximum value.
//
// A doorbell carries no payload — only "progress advanced to N" — so
// consecutive rings are perfectly mergeable: ringing the max once is
// observationally identical to ringing every intermediate value, at one
// nt-store (or one forwarded MMIO RPC) instead of N. The flush policy is
// watermark-or-deadline:
//
//   * watermark  — flush when this many offers accumulated (pure count
//                  batching, e.g. RX buffer posting);
//   * max_delay  — arm a timer on the first pending offer and flush when
//                  it lapses, so a trickle of offers is never deferred
//                  longer than max_delay (the hard latency bound).
//
// The ring action is injected as a function so the same policy + counters
// cover both flavors of doorbell in the tree: a msg::DoorbellSender CXL
// line and a forwarded MMIO register write (VirtualNic's RX doorbell).
//
// Values are folded with max() and a flush that would not advance past
// the last rung value is skipped entirely — rung values are strictly
// increasing whenever offered values are monotone, which downstream
// consumers (contiguous-prefix doorbells) rely on.
#ifndef SRC_MSG_COALESCE_H_
#define SRC_MSG_COALESCE_H_

#include <functional>
#include <memory>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/registry.h"
#include "src/sim/event_loop.h"
#include "src/sim/task.h"

namespace cxlpool::msg {

class DoorbellCoalescer {
 public:
  // Performs the actual ring (nt-store, MMIO write, ...). Must tolerate
  // being invoked from a detached timer task: the coalescer guarantees it
  // is never called after the coalescer is destroyed.
  using RingFn = std::function<sim::Task<Status>(uint64_t value)>;

  struct Options {
    // Flush after this many offers. 1 = ring-through (no count batching).
    uint32_t watermark = 1;
    // Flush a partial batch this long after its first offer. 0 = no
    // timer: only the watermark or an explicit Flush() rings. This is the
    // hard latency bound on any offered value reaching the wire.
    Nanos max_delay = 0;
  };

  // Counts under `scope`: coalesce.offered, coalesce.rings (ring actions
  // actually issued), coalesce.coalesced (offers folded into another ring),
  // coalesce.watermark_flushes, coalesce.deadline_flushes,
  // coalesce.forced_flushes (explicit Flush() with pending state) and
  // coalesce.skipped_stale (flushes dropped: value not beyond last rung).
  DoorbellCoalescer(sim::EventLoop& loop, RingFn ring, Options options,
                    const obs::Scope& scope);
  ~DoorbellCoalescer();
  DoorbellCoalescer(const DoorbellCoalescer&) = delete;
  DoorbellCoalescer& operator=(const DoorbellCoalescer&) = delete;

  // Folds `value` into the pending batch (max) and flushes per policy.
  // The returned status reflects a flush performed BY this offer; a
  // deferred offer returns OK and any ring failure surfaces on the flush
  // that carries it.
  sim::Task<Status> Offer(uint64_t value);

  // Forces the pending value out now (e.g. before blocking on completions).
  // No-op when nothing is pending.
  sim::Task<Status> Flush();

  // Drops pending state and the last-rung watermark without ringing —
  // for rebind/reprogram, where the device's doorbell state restarted.
  void Reset();

  bool dirty() const { return state_->dirty; }
  uint64_t pending_value() const { return state_->pending; }
  uint64_t last_rung() const { return state_->last_rung; }

 private:
  // Everything the detached deadline timer touches lives here, behind a
  // shared_ptr: the timer outlasting the coalescer observes `closed` and
  // exits instead of dangling.
  struct State {
    State(sim::EventLoop& l, const obs::Scope& scope);
    sim::EventLoop& loop;
    RingFn ring;
    uint64_t pending = 0;
    uint64_t last_rung = 0;
    uint32_t since_flush = 0;  // offers folded into the pending batch
    bool dirty = false;
    bool timer_armed = false;
    bool closed = false;
    obs::Counter* offered;
    obs::Counter* rings;
    obs::Counter* coalesced;
    obs::Counter* watermark_flushes;
    obs::Counter* deadline_flushes;
    obs::Counter* forced_flushes;
    obs::Counter* skipped_stale;
  };

  static sim::Task<Status> FlushNow(std::shared_ptr<State> s);
  static sim::Task<> DeadlineFlush(std::shared_ptr<State> s, Nanos delay);

  Options options_;
  std::shared_ptr<State> state_;
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_COALESCE_H_
