// DoorbellCoalescer: folds N pending doorbell rings into one non-temporal
// store of the maximum value.
//
// A doorbell carries no payload — only "progress advanced to N" — so
// consecutive rings are perfectly mergeable: ringing the max once is
// observationally identical to ringing every intermediate value, at one
// nt-store (or one forwarded MMIO RPC) instead of N. The coalescer flushes
// when `watermark` offers have accumulated (pure count batching, e.g. RX
// buffer posting) or when its owner calls Flush().
//
// The ring action is injected as a function so the same policy + counters
// cover any doorbell: a non-temporal store to a CXL line or an MMIO
// register write, direct or forwarded (VirtualNic's RX doorbell).
//
// Values are folded with max() and a flush that would not advance past
// the last rung value is skipped entirely — rung values are strictly
// increasing whenever offered values are monotone, which downstream
// consumers (contiguous-prefix doorbells) rely on.
#ifndef SRC_MSG_COALESCE_H_
#define SRC_MSG_COALESCE_H_

#include <functional>

#include "src/common/status.h"
#include "src/obs/registry.h"
#include "src/sim/task.h"

namespace cxlpool::msg {

class DoorbellCoalescer {
 public:
  // Performs the actual ring (nt-store, MMIO write, ...).
  using RingFn = std::function<sim::Task<Status>(uint64_t value)>;

  // Flushes after `watermark` offers (clamped to >= 1; 1 = ring-through,
  // no count batching). Counts under `scope`: coalesce.offered,
  // coalesce.rings (ring actions actually issued), coalesce.coalesced
  // (offers folded into another ring), coalesce.watermark_flushes,
  // coalesce.forced_flushes (explicit Flush() with pending state) and
  // coalesce.skipped_stale (flushes dropped: value not beyond last rung).
  DoorbellCoalescer(RingFn ring, uint32_t watermark, const obs::Scope& scope);
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

  bool dirty() const { return dirty_; }
  uint64_t pending_value() const { return pending_; }
  uint64_t last_rung() const { return last_rung_; }

 private:
  sim::Task<Status> FlushNow();

  RingFn ring_;
  uint32_t watermark_;
  uint64_t pending_ = 0;
  uint64_t last_rung_ = 0;
  uint32_t since_flush_ = 0;  // offers folded into the pending batch
  bool dirty_ = false;
  obs::Counter* offered_;
  obs::Counter* rings_;
  obs::Counter* coalesced_;
  obs::Counter* watermark_flushes_;
  obs::Counter* forced_flushes_;
  obs::Counter* skipped_stale_;
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_COALESCE_H_
