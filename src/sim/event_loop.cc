#include "src/sim/event_loop.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/check.h"

namespace cxlpool::sim {

namespace {
// Heap order for far events: std::push_heap keeps the greatest element on
// top, so "greatest" is the earliest (when, seq).
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.when != b.when ? a.when > b.when : a.seq > b.seq;
};
}  // namespace

EventLoop::EventLoop() : slots_(kWheelSize) {}

void EventLoop::ScheduleAt(Nanos when, Callback cb) {
  CXLPOOL_DCHECK(cb != nullptr);
  uint32_t idx;
  if (free_callbacks_.empty()) {
    idx = static_cast<uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(cb));
  } else {
    idx = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[idx] = std::move(cb);
  }
  Enqueue(when, (Ref{idx} << 1) | 1);
}

void EventLoop::ResumeAt(Nanos when, std::coroutine_handle<> h) {
  Ref ref = reinterpret_cast<uintptr_t>(h.address());
  CXLPOOL_DCHECK(h && (ref & kTagMask) == 0);
  Enqueue(when, ref);
}

void EventLoop::WakeAt(Nanos when, Waker* w) {
  Ref ref = reinterpret_cast<uintptr_t>(w);
  CXLPOOL_DCHECK(w != nullptr && (ref & kTagMask) == 0);
  Enqueue(when, ref | kWakerTag);
}

void EventLoop::Enqueue(Nanos when, Ref ref) {
  if (when < now_) {
    when = now_;  // never travel back in time
  }
  if (when - now_ >= kWheelSize) {
    far_.push_back(FarEvent{when, next_seq_++, ref});
    std::push_heap(far_.begin(), far_.end(), kLater);
    return;
  }
  uint32_t n = free_node_;
  if (n != kNil) {
    free_node_ = nodes_[n].next;
    nodes_[n] = Node{ref, kNil};
  } else {
    n = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{ref, kNil});
  }
  uint64_t s = static_cast<uint64_t>(when) & kSlotMask;
  Slot& slot = slots_[s];
  if (slot.head == kNil) {
    slot.head = n;
    occupied_[s / 64] |= uint64_t{1} << (s % 64);
    occupied_words_ |= uint64_t{1} << (s / 64);
  } else {
    nodes_[slot.tail].next = n;
  }
  slot.tail = n;
  ++near_count_;
}

void EventLoop::Migrate() {
  // A far event for time T was scheduled before now came within range of T,
  // so before anything could be appended to T's slot directly: moving far
  // events in (when, seq) order keeps every slot in scheduling order.
  while (!far_.empty() && far_.front().when - now_ < kWheelSize) {
    std::pop_heap(far_.begin(), far_.end(), kLater);
    FarEvent e = far_.back();
    far_.pop_back();
    Enqueue(e.when, e.ref);
  }
}

Nanos EventLoop::NextTime() const {
  if (near_count_ == 0) {
    return far_.front().when;
  }
  // Near events lie in [now, now + kWheelSize): scan the slots circularly
  // from now's slot.
  uint64_t start = static_cast<uint64_t>(now_) & kSlotMask;
  uint64_t word = start / 64;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (start % 64));
  uint64_t slot;
  if (bits != 0) {
    slot = word * 64 + std::countr_zero(bits);
  } else {
    uint64_t later = word < 63 ? occupied_words_ & (~uint64_t{0} << (word + 1)) : 0;
    int w = std::countr_zero(later != 0 ? later : occupied_words_);
    slot = static_cast<uint64_t>(w) * 64 + std::countr_zero(occupied_[w]);
  }
  return now_ + static_cast<Nanos>((slot - start) & kSlotMask);
}

void EventLoop::RunOne(Nanos when) {
  if (when != now_) {
    now_ = when;
    Migrate();
  }
  uint64_t s = static_cast<uint64_t>(when) & kSlotMask;
  Slot& slot = slots_[s];
  uint32_t n = slot.head;
  Ref ref = nodes_[n].ref;
  slot.head = nodes_[n].next;
  if (slot.head == kNil) {
    occupied_[s / 64] &= ~(uint64_t{1} << (s % 64));
    if (occupied_[s / 64] == 0) {
      occupied_words_ &= ~(uint64_t{1} << (s / 64));
    }
  }
  nodes_[n].next = free_node_;
  free_node_ = n;
  --near_count_;
  ++executed_;

  if ((ref & kTagMask) == 0) {
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ref)).resume();
    return;
  }
  if ((ref & kTagMask) == kWakerTag) {
    reinterpret_cast<Waker*>(ref & ~kTagMask)->Wake();
    return;
  }
  // Move the callback out first: it may schedule more callbacks, which can
  // reallocate the table.
  uint32_t idx = static_cast<uint32_t>(ref >> 1);
  Callback cb = std::move(callbacks_[idx]);
  free_callbacks_.push_back(idx);
  cb();
}

void EventLoop::Run() {
  stopped_ = false;
  while (!empty() && !stopped_) {
    RunOne(NextTime());
  }
}

void EventLoop::RunUntil(Nanos deadline) {
  stopped_ = false;
  while (!empty() && !stopped_) {
    Nanos when = NextTime();
    if (when > deadline) {
      break;
    }
    RunOne(when);
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
    Migrate();
  }
}

}  // namespace cxlpool::sim
