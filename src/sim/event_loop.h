// Discrete-event simulation core: a calendar queue of events keyed by
// simulated time (nanoseconds). Single-threaded by design — determinism
// is a feature; concurrency in the simulated system is expressed with
// coroutines (src/sim/task.h), not OS threads.
//
// Events less than kWheelSize ns ahead of now() sit in one FIFO list per
// nanosecond slot, found through a two-level occupancy bitmap; the few
// further ahead wait in a binary heap ordered by (time, scheduling order)
// and move into their slot as now() comes within range. An event is a
// coroutine handle (the common case: every Delay and Event wakeup), a
// Waker (an object resumed in place, such as a HostAdapter access), or an
// index into a table of boxed callbacks.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/units.h"

namespace cxlpool::sim {

using Callback = std::function<void()>;

// An event target that is neither a coroutine frame nor a boxed callback:
// the loop calls Wake() at the scheduled time. Its owner keeps it alive
// until then. Awaitables that run their stages as plain code (no frame)
// queue themselves this way.
class Waker {
 public:
  virtual void Wake() = 0;

 protected:
  ~Waker() = default;
};

class EventLoop {
 public:
  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time. Starts at 0.
  Nanos now() const { return now_; }

  // Runs `cb` at absolute simulated time `when` (clamped to now()).
  // Events scheduled for the same instant run in scheduling order.
  void ScheduleAt(Nanos when, Callback cb);

  // Runs `cb` after `delay` nanoseconds of simulated time.
  void Schedule(Nanos delay, Callback cb) { ScheduleAt(now_ + delay, std::move(cb)); }

  // Resumes `h` at absolute simulated time `when` (clamped to now()),
  // ordered with ScheduleAt events by scheduling order.
  void ResumeAt(Nanos when, std::coroutine_handle<> h);

  // Calls w->Wake() at absolute simulated time `when` (clamped to now()),
  // ordered with the other events by scheduling order.
  void WakeAt(Nanos when, Waker* w);

  // Processes events until the calendar is empty or Stop() is called.
  void Run();

  // Processes events with time <= `deadline`; afterwards now() == deadline
  // (unless Stop() was called earlier). Events beyond the deadline stay
  // queued.
  void RunUntil(Nanos deadline);

  // RunUntil(now() + duration).
  void RunFor(Nanos duration) { RunUntil(now_ + duration); }

  // Makes Run()/RunUntil() return after the current callback completes.
  void Stop() { stopped_ = true; }

  bool empty() const { return pending() == 0; }
  size_t pending() const { return near_count_ + far_.size(); }

  // Total number of callbacks executed since construction. Useful for
  // detecting runaway simulations and for the DES micro-benchmarks.
  uint64_t executed() const { return executed_; }

 private:
  static constexpr Nanos kWheelSize = 4096;  // covers >99% of scheduled delays
  static constexpr uint64_t kSlotMask = kWheelSize - 1;
  static constexpr uint32_t kNil = UINT32_MAX;
  static_assert(kWheelSize == 64 * 64, "one summary word covers the bitmap");

  // An event reference: a coroutine frame address (low bits 00), a Waker
  // address | 2, or (callback index << 1) | 1. Frames and Wakers are at
  // least 8-aligned.
  using Ref = uint64_t;
  static constexpr Ref kTagMask = 3;
  static constexpr Ref kWakerTag = 2;

  struct Node {
    Ref ref;
    uint32_t next;
  };
  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };
  struct FarEvent {
    Nanos when;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    Ref ref;
  };

  // Appends `ref` to the FIFO of the slot holding `when` (clamped to now())
  // if that is within the wheel's horizon, else pushes it on the far heap.
  void Enqueue(Nanos when, Ref ref);
  // Moves every far event now within the wheel's horizon into its slot, in
  // (time, seq) order. Called whenever now() advances.
  void Migrate();
  // Time of the earliest event. Precondition: !empty().
  Nanos NextTime() const;
  // Advances to `when` (the earliest event's time), then pops and runs
  // the first event of its slot.
  void RunOne(Nanos when);

  std::vector<Slot> slots_;
  std::array<uint64_t, kWheelSize / 64> occupied_{};  // bit per non-empty slot
  uint64_t occupied_words_ = 0;                       // bit per non-zero word
  std::vector<Node> nodes_;
  uint32_t free_node_ = kNil;
  size_t near_count_ = 0;

  std::vector<FarEvent> far_;  // min-heap on (when, seq)
  uint64_t next_seq_ = 0;

  std::vector<Callback> callbacks_;
  std::vector<uint32_t> free_callbacks_;

  Nanos now_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace cxlpool::sim

#endif  // SRC_SIM_EVENT_LOOP_H_
