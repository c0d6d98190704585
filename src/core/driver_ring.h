// DriverRing: the host half of one descriptor ring that a device fetches
// by DMA — VirtualNic's TX and RX rings and QueuePairDriver's submission
// queue (paper §4.1: the host publishes each entry, then announces it with
// a doorbell).
//
// A poster claims a slot before it first suspends, so concurrent posters
// get distinct slots, publishes its entry at SlotAddr(slot) through its
// PlacedMemory, and then reports the slot with Published(). Publishes may
// finish out of order, so a doorbell may only announce the count of
// entries published without a gap; one flag per entry records the slots
// published beyond that prefix. The flags cannot alias: every caller's
// flow control keeps its claimed-but-unconsumed slots within the ring, and
// a device consumes no entry before a doorbell covers it.
//
// One doorbell rule: a value counts as announced when its doorbell write
// is issued, not when the write completes, so a publish that lands while
// an earlier doorbell is still in flight rings only if it extends the
// prefix beyond that doorbell.
//
// Reset() restarts the ring for a re-programmed device and bumps
// generation(). A poster whose generation moved while it published must
// not touch the ring again; its caller returns kAborted.
#ifndef SRC_CORE_DRIVER_RING_H_
#define SRC_CORE_DRIVER_RING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace cxlpool::core {

class DriverRing {
 public:
  // `entries` slots of `entry_size` bytes each, starting at `base`.
  DriverRing(uint64_t base, uint32_t entries, uint32_t entry_size)
      : base_(base), entry_size_(entry_size), published_(entries, false) {}

  // Takes the next slot (an absolute count; SlotAddr wraps it).
  uint64_t Claim() { return posted_++; }
  uint64_t SlotAddr(uint64_t slot) const { return base_ + Index(slot) * entry_size_; }

  // Marks `slot` published. Returns the count of entries published without
  // a gap once it is at least `batch` past the last announced value, and
  // records it as announced; otherwise returns 0 (nothing to ring yet).
  uint64_t Published(uint64_t slot, uint32_t batch = 1) {
    CXLPOOL_DCHECK(slot >= ready_ && slot < posted_ && !published_[Index(slot)]);
    published_[Index(slot)] = true;
    while (published_[Index(ready_)]) {
      published_[Index(ready_)] = false;
      ++ready_;
    }
    if (ready_ == announced_ || ready_ - announced_ < batch) {
      return 0;
    }
    announced_ = ready_;
    return ready_;
  }

  // The published prefix if it is beyond the last announced value (a
  // forced flush of a partial batch), recorded as announced; otherwise 0.
  uint64_t TakeUnannounced() {
    if (ready_ == announced_) {
      return 0;
    }
    announced_ = ready_;
    return ready_;
  }

  // Forgets every claim, publish and announcement: the device's ring state
  // restarted.
  void Reset() {
    posted_ = 0;
    ready_ = 0;
    announced_ = 0;
    std::fill(published_.begin(), published_.end(), false);
    ++generation_;
  }

  // Slots claimed since the last Reset.
  uint64_t posted() const { return posted_; }
  uint64_t generation() const { return generation_; }

 private:
  uint64_t Index(uint64_t slot) const { return slot % published_.size(); }

  uint64_t base_;
  uint32_t entry_size_;
  std::vector<bool> published_;  // slots published beyond ready_
  uint64_t posted_ = 0;          // claimed slots
  uint64_t ready_ = 0;           // published without a gap
  uint64_t announced_ = 0;       // last value handed to a doorbell
  uint64_t generation_ = 0;
};

}  // namespace cxlpool::core

#endif  // SRC_CORE_DRIVER_RING_H_
