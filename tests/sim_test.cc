#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "src/sim/bandwidth.h"
#include "src/sim/chaos.h"
#include "src/sim/event_loop.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace cxlpool::sim {
namespace {

// --- EventLoop ---

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(30, [&] { order.push_back(3); });
  loop.Schedule(10, [&] { order.push_back(1); });
  loop.Schedule(20, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
  EXPECT_EQ(loop.executed(), 3u);
}

TEST(EventLoopTest, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.Schedule(100, [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, ReentrantScheduling) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(5, [&] {
    ++fired;
    loop.Schedule(5, [&] { ++fired; });
  });
  loop.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoopTest, RunUntilLeavesFutureEvents) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(10, [&] { ++fired; });
  loop.Schedule(100, [&] { ++fired; });
  loop.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 50);
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, PastSchedulingClampsToNow) {
  EventLoop loop;
  Nanos seen = -1;
  loop.Schedule(100, [&] {
    loop.ScheduleAt(5, [&] { seen = loop.now(); });  // 5 < now=100
  });
  loop.Run();
  EXPECT_EQ(seen, 100);
}

TEST(EventLoopTest, StopInterruptsRun) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(1, [&] {
    ++fired;
    loop.Stop();
  });
  loop.Schedule(2, [&] { ++fired; });
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
}

// Same-instant events run in scheduling order even when one of them was
// scheduled beyond the loop's near horizon and the other within it.
TEST(EventLoopTest, FarAndNearEventsForOneInstantRunInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(5000, [&] { order.push_back(1); });  // far at now == 0
  loop.RunUntil(1000);
  loop.ScheduleAt(5000, [&] { order.push_back(2); });  // near at now == 1000
  // The same again with the clock advanced by an event instead of RunUntil.
  loop.ScheduleAt(20000, [&] { order.push_back(3); });
  loop.ScheduleAt(17000, [&] {
    loop.ScheduleAt(20000, [&] { order.push_back(4); });
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(loop.now(), 20000);
}

// The event order EventLoop must reproduce: a binary heap on (time,
// scheduling sequence), with the same clamping, Stop and RunUntil rules.
class ReferenceLoop {
 public:
  Nanos now() const { return now_; }
  size_t pending() const { return heap_.size(); }
  uint64_t executed() const { return executed_; }
  bool empty() const { return heap_.empty(); }
  void Stop() { stopped_ = true; }

  void ScheduleAt(Nanos when, std::function<void()> fn) {
    heap_.push(Item{std::max(when, now_), seq_++, std::move(fn)});
  }

  void Run() {
    stopped_ = false;
    while (!heap_.empty() && !stopped_) {
      RunOne();
    }
  }

  void RunUntil(Nanos deadline) {
    stopped_ = false;
    while (!heap_.empty() && !stopped_ && heap_.top().when <= deadline) {
      RunOne();
    }
    if (!stopped_ && now_ < deadline) {
      now_ = deadline;
    }
  }

 private:
  struct Item {
    Nanos when;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Item& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  void RunOne() {
    Item item = std::move(const_cast<Item&>(heap_.top()));
    heap_.pop();
    now_ = item.when;
    ++executed_;
    item.fn();
  }

  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap_;
  Nanos now_ = 0;
  uint64_t seq_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
};

// What one step of a randomized run observed. Event steps carry the event's
// id; control steps (after each Run/RunUntil the test makes) carry
// kControlStep.
struct LoopStep {
  static constexpr uint64_t kControlStep = UINT64_MAX;
  uint64_t id;
  Nanos now;
  size_t pending;
  uint64_t executed;
  bool operator==(const LoopStep&) const = default;
};

// Resumes the awaiting coroutine at an absolute time, including now().
struct ResumeAtAwaiter {
  EventLoop& loop;
  Nanos when;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) const { loop.ResumeAt(when, h); }
  void await_resume() const {}
};

// Runs `fn` from a Waker event, then deletes itself.
class OneShotWaker final : public Waker {
 public:
  explicit OneShotWaker(std::function<void()> fn) : fn_(std::move(fn)) {}
  void Wake() override {
    std::function<void()> fn = std::move(fn_);
    delete this;
    fn();
  }

 private:
  std::function<void()> fn_;
};

// A seeded random workload over `Loop` (EventLoop or ReferenceLoop). Each
// event's behaviour depends only on its id, so both loops see the same
// program as long as they run events in the same order.
template <typename Loop>
class LoopScenario {
 public:
  LoopScenario(Loop& loop, uint64_t seed) : loop_(loop), seed_(seed) {}

  // Schedules the next event as a callback, a coroutine resumption or a
  // Waker, at a delay around the near horizon (4096 ns) or far beyond it;
  // `far` picks only [10 us, 10 ms].
  void AddRandom(Rng& rng, bool far = false) {
    Nanos delay = far ? FarDelay(rng) : DrawDelay(rng);
    uint64_t kind = rng.UniformInt(uint64_t{3});
    uint64_t id = next_id_++;
    Nanos when = loop_.now() + delay;
    if constexpr (std::is_same_v<Loop, EventLoop>) {
      if (kind == 1) {
        Spawn(Resumed(loop_, when, [this, id] { Fire(id); }));
        return;
      }
      if (kind == 2) {
        loop_.WakeAt(when, new OneShotWaker([this, id] { Fire(id); }));
        return;
      }
    }
    loop_.ScheduleAt(when, [this, id] { Fire(id); });
  }

  void MarkControlStep() {
    steps_.push_back({LoopStep::kControlStep, loop_.now(), loop_.pending(),
                      loop_.executed()});
  }

  const std::vector<LoopStep>& steps() const { return steps_; }

 private:
  static Nanos FarDelay(Rng& rng) {
    return rng.UniformInt(10 * kMicrosecond, 10 * kMillisecond);
  }

  static Nanos DrawDelay(Rng& rng) {
    switch (rng.UniformInt(uint64_t{8})) {
      case 0: return 0;
      case 1: return 4095;
      case 2: return 4096;
      case 3: return 4097;
      case 4: return FarDelay(rng);
      default: return rng.UniformInt(1, 4094);
    }
  }

  static Task<> Resumed(EventLoop& loop, Nanos when, std::function<void()> fn) {
    co_await ResumeAtAwaiter{loop, when};
    fn();
  }

  // Records the step, then re-entrantly schedules 0-2 children (0.7 on
  // average, so every run drains) and sometimes stops the loop.
  void Fire(uint64_t id) {
    steps_.push_back({id, loop_.now(), loop_.pending(), loop_.executed()});
    Rng rng(seed_ * 1'000'003 + id);
    uint64_t roll = rng.UniformInt(uint64_t{10});
    int children = roll < 5 ? 0 : roll < 8 ? 1 : 2;
    for (int i = 0; i < children && next_id_ < kMaxEvents; ++i) {
      AddRandom(rng);
    }
    if (rng.Bernoulli(0.02)) {
      loop_.Stop();
    }
  }

  static constexpr uint64_t kMaxEvents = 20000;
  Loop& loop_;
  uint64_t seed_;
  uint64_t next_id_ = 0;
  std::vector<LoopStep> steps_;
};

template <typename Loop>
std::vector<LoopStep> RunRandomLoop(uint64_t seed) {
  Loop loop;
  LoopScenario<Loop> scenario(loop, seed);
  Rng rng(seed);
  for (int round = 0; round < 300; ++round) {
    uint64_t adds = rng.UniformInt(uint64_t{5});
    for (uint64_t i = 0; i < adds; ++i) {
      scenario.AddRandom(rng);
    }
    switch (rng.UniformInt(uint64_t{5})) {
      case 0:
        loop.RunUntil(loop.now() + rng.UniformInt(0, 8192));
        break;
      case 1:
        loop.RunUntil(loop.now() + rng.UniformInt(10 * kMicrosecond, 20 * kMillisecond));
        break;
      case 2:
        // Only far events pending, then a deadline past the horizon: the
        // loop must jump straight to them.
        loop.Run();
        scenario.AddRandom(rng, /*far=*/true);
        scenario.AddRandom(rng, /*far=*/true);
        loop.RunUntil(loop.now() + 20 * kMillisecond);
        break;
      case 3:
        // An idle jump past the horizon, then near events at the new time.
        loop.Run();
        loop.RunUntil(loop.now() + rng.UniformInt(4096, 3 * kMillisecond));
        break;
      default:
        loop.Run();
        break;
    }
    scenario.MarkControlStep();
  }
  while (!loop.empty()) {
    loop.Run();
  }
  scenario.MarkControlStep();
  return scenario.steps();
}

TEST(EventLoopTest, MatchesReferenceOrderUnderRandomSchedules) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::vector<LoopStep> got = RunRandomLoop<EventLoop>(seed);
    std::vector<LoopStep> want = RunRandomLoop<ReferenceLoop>(seed);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "seed " << seed << " step " << i << ": id " << got[i].id << " vs "
          << want[i].id << ", now " << got[i].now << " vs " << want[i].now
          << ", pending " << got[i].pending << " vs " << want[i].pending
          << ", executed " << got[i].executed << " vs " << want[i].executed;
    }
    EXPECT_GT(got.size(), 1000u) << "seed " << seed;
  }
}

// --- Task / coroutines ---

Task<int> Immediate() { co_return 7; }

TEST(TaskTest, ImmediateResult) {
  EventLoop loop;
  EXPECT_EQ(RunBlocking(loop, Immediate()), 7);
}

Task<int> DelayedValue(EventLoop& loop, Nanos d, int v) {
  co_await Delay(loop, d);
  co_return v;
}

TEST(TaskTest, DelayAdvancesTime) {
  EventLoop loop;
  int v = RunBlocking(loop, DelayedValue(loop, 250, 9));
  EXPECT_EQ(v, 9);
  EXPECT_EQ(loop.now(), 250);
}

Task<int> Nested(EventLoop& loop) {
  int a = co_await DelayedValue(loop, 100, 1);
  int b = co_await DelayedValue(loop, 50, 2);
  co_return a + b;
}

TEST(TaskTest, NestedAwaitsAccumulateTime) {
  EventLoop loop;
  EXPECT_EQ(RunBlocking(loop, Nested(loop)), 3);
  EXPECT_EQ(loop.now(), 150);
}

TEST(TaskTest, ZeroDelayDoesNotSuspend) {
  EventLoop loop;
  bool done = false;
  auto t = [](EventLoop& l, bool& flag) -> Task<> {
    co_await Delay(l, 0);
    co_await Delay(l, -5);
    flag = true;
  };
  Spawn(t(loop, done));
  // Spawn runs eagerly until first real suspension; zero delays are ready.
  EXPECT_TRUE(done);
  EXPECT_EQ(loop.now(), 0);
}

TEST(TaskTest, SpawnRunsConcurrently) {
  EventLoop loop;
  std::vector<int> order;
  auto actor = [](EventLoop& l, std::vector<int>& log, Nanos d, int tag) -> Task<> {
    co_await Delay(l, d);
    log.push_back(tag);
  };
  Spawn(actor(loop, order, 30, 3));
  Spawn(actor(loop, order, 10, 1));
  Spawn(actor(loop, order, 20, 2));
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- Sync primitives ---

TEST(SyncTest, EventWakesWaiters) {
  EventLoop loop;
  Event e(loop);
  int woken = 0;
  auto waiter = [](Event& ev, int& count) -> Task<> {
    co_await ev.Wait();
    ++count;
  };
  Spawn(waiter(e, woken));
  Spawn(waiter(e, woken));
  loop.Run();
  EXPECT_EQ(woken, 0);  // nothing set yet
  e.Set();
  loop.Run();
  EXPECT_EQ(woken, 2);
}

TEST(SyncTest, SetEventDoesNotBlock) {
  EventLoop loop;
  Event e(loop);
  e.Set();
  bool done = false;
  auto waiter = [](Event& ev, bool& flag) -> Task<> {
    co_await ev.Wait();
    flag = true;
  };
  Spawn(waiter(e, done));
  EXPECT_TRUE(done);  // ready immediately, no suspension
}

TEST(SyncTest, SemaphoreLimitsConcurrency) {
  EventLoop loop;
  Semaphore sem(loop, 2);
  int active = 0;
  int max_active = 0;
  auto worker = [](EventLoop& l, Semaphore& s, int& act, int& peak) -> Task<> {
    co_await s.Acquire();
    ++act;
    peak = std::max(peak, act);
    co_await Delay(l, 100);
    --act;
    s.Release();
  };
  for (int i = 0; i < 6; ++i) {
    Spawn(worker(loop, sem, active, max_active));
  }
  loop.Run();
  EXPECT_EQ(active, 0);
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(loop.now(), 300);  // 6 workers, 2 at a time, 100 ns each
}

TEST(SyncTest, SemaphoreTryAcquire) {
  EventLoop loop;
  Semaphore sem(loop, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(SyncTest, QueueDeliversInOrder) {
  EventLoop loop;
  Queue<int> q(loop);
  std::vector<int> got;
  auto consumer = [](Queue<int>& queue, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      out.push_back(co_await queue.Pop());
    }
  };
  Spawn(consumer(q, got));
  q.Push(1);
  q.Push(2);
  loop.Run();
  q.Push(3);
  loop.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(SyncTest, QueueTryPop) {
  EventLoop loop;
  Queue<int> q(loop);
  int v = 0;
  EXPECT_FALSE(q.TryPop(&v));
  q.Push(5);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 5);
}

// --- Random ---

TEST(RandomTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    uint64_t k = rng.UniformInt(uint64_t{10});
    EXPECT_LT(k, 10u);
    int64_t j = rng.UniformInt(int64_t{-5}, int64_t{5});
    EXPECT_GE(j, -5);
    EXPECT_LE(j, 5);
  }
}

TEST(RandomTest, ExponentialMean) {
  Rng rng(11);
  Summary s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Exponential(100.0));
  }
  EXPECT_NEAR(s.mean(), 100.0, 3.0);
}

TEST(RandomTest, NormalMoments) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Normal(50.0, 10.0));
  }
  EXPECT_NEAR(s.mean(), 50.0, 0.5);
  EXPECT_NEAR(s.stddev(), 10.0, 0.5);
}

TEST(RandomTest, CategoricalRespectsWeights) {
  Rng rng(17);
  double w[] = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.Categorical(w)];
  }
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 0.3);
}

TEST(RandomTest, ZipfIsSkewed) {
  Rng rng(19);
  ZipfGenerator zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[9] * 5);   // rank 0 ~10x rank 9 at s=1
  EXPECT_GT(counts[0], counts[99] * 30);
}

TEST(RandomTest, ZipfianSamplerDeterministicForFixedSeed) {
  ZipfianSampler zipf(1'000'000, 0.99);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    uint64_t va = zipf.Sample(a);
    uint64_t vb = zipf.Sample(b);
    ASSERT_EQ(va, vb);
    ASSERT_LT(va, zipf.n());
  }
}

TEST(RandomTest, ZipfianSamplerHeadMass) {
  // Empirical head mass vs. the analytic zipf(0.99) distribution over 10^5
  // keys: H = sum k^-0.99 ~= 12.3, so rank 0 carries ~8.1% of the mass and
  // the top-10 ranks together ~23.6%.
  ZipfianSampler zipf(100'000, 0.99);
  Rng rng(7);
  constexpr int kSamples = 200'000;
  int head = 0;
  int top10 = 0;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t r = zipf.Sample(rng);
    if (r == 0) {
      ++head;
    }
    if (r < 10) {
      ++top10;
    }
  }
  double head_frac = static_cast<double>(head) / kSamples;
  double top10_frac = static_cast<double>(top10) / kSamples;
  EXPECT_NEAR(head_frac, 0.081, 0.02);
  EXPECT_NEAR(top10_frac, 0.236, 0.04);
}

TEST(RandomTest, ZipfianSamplerMatchesCdfTableForSmallN) {
  // Rejection-inversion and the exact CDF table must agree on the head
  // frequencies for a key space small enough to tabulate.
  constexpr size_t kN = 1000;
  constexpr double kTheta = 0.99;
  constexpr int kSamples = 100'000;
  ZipfianSampler ri(kN, kTheta);
  ZipfGenerator table(kN, kTheta);
  Rng ra(23);
  Rng rb(29);
  std::vector<int> ca(kN, 0);
  std::vector<int> cb(kN, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++ca[ri.Sample(ra)];
    ++cb[table.Sample(rb)];
  }
  for (size_t rank : {size_t{0}, size_t{1}, size_t{5}}) {
    double fa = static_cast<double>(ca[rank]) / kSamples;
    double fb = static_cast<double>(cb[rank]) / kSamples;
    EXPECT_NEAR(fa, fb, 0.015) << "rank " << rank;
  }
}

TEST(RandomTest, ZipfianSamplerDegenerateSingleItem) {
  ZipfianSampler zipf(1, 0.99);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

// --- Stats ---

TEST(StatsTest, SummaryBasics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-9);
}

TEST(StatsTest, HistogramExactSmallValues) {
  Histogram h;
  for (int i = 0; i < 10; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9);
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 9);
}

TEST(StatsTest, HistogramPercentileAccuracy) {
  Histogram h;
  for (int64_t v = 1; v <= 100000; ++v) {
    h.Add(v);
  }
  // Relative error bound from sub-bucketing: 2^-6 ~ 1.6%.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.50)), 50000.0, 50000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 99000.0, 99000.0 * 0.02);
  EXPECT_EQ(h.Percentile(1.0), 100000);
}

TEST(StatsTest, HistogramMerge) {
  Histogram a;
  Histogram b;
  a.Add(100);
  b.Add(300);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100);
  EXPECT_EQ(a.max(), 300);
}

TEST(StatsTest, HistogramNegativeClampsToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(0.5), 0);
}

// --- Bandwidth ---

TEST(BandwidthTest, IdleLinkIsSerializationOnly) {
  BandwidthQueue q(10.0);  // 10 B/ns
  EXPECT_EQ(q.Acquire(0, 1000), 100);
  EXPECT_EQ(q.next_free(), 100);
}

TEST(BandwidthTest, BackToBackTransfersQueue) {
  BandwidthQueue q(10.0);
  EXPECT_EQ(q.Acquire(0, 1000), 100);
  EXPECT_EQ(q.Acquire(0, 1000), 200);  // queues behind the first
  EXPECT_EQ(q.Acquire(500, 1000), 600);  // link idle again by t=500
}

TEST(BandwidthTest, PeekDoesNotReserve) {
  BandwidthQueue q(10.0);
  EXPECT_EQ(q.Peek(0, 1000), 100);
  EXPECT_EQ(q.Peek(0, 1000), 100);  // unchanged
  EXPECT_EQ(q.next_free(), 0);
}

TEST(BandwidthTest, UtilizationTracksBusyFraction) {
  BandwidthQueue q(10.0);
  q.Acquire(0, 1000);  // busy 0..100
  EXPECT_NEAR(q.Utilization(200), 0.5, 1e-9);
  EXPECT_NEAR(q.Utilization(100), 1.0, 1e-9);
}

TEST(BandwidthTest, RateChangeAffectsLaterTransfers) {
  BandwidthQueue q(10.0);
  EXPECT_EQ(q.Acquire(0, 100), 10);
  q.set_bytes_per_ns(1.0);  // degraded link
  EXPECT_EQ(q.Acquire(10, 100), 110);
}

TEST(BandwidthTest, BacklogVisible) {
  BandwidthQueue q(1.0);
  q.Acquire(0, 500);
  EXPECT_EQ(q.Backlog(100), 400);
  EXPECT_EQ(q.Backlog(600), 0);
}

// --- ChaosInjector ---

TEST(ChaosInjectorTest, RandomScheduleIsDeterministicPerSeed) {
  EventLoop loop;
  auto make_plan = [&loop](uint64_t seed) {
    ChaosInjector::Options o;
    o.seed = seed;
    ChaosInjector chaos(loop, o);
    chaos.AddFault("a", [] {}, [] {});
    chaos.AddFault("b", [] {}, [] {});
    chaos.AddFault("c", [] {}, [] {});
    chaos.ScheduleRandom(0, 10 * kMillisecond);
    return chaos.plan();
  };
  auto p1 = make_plan(123);
  auto p2 = make_plan(123);
  auto other = make_plan(124);
  ASSERT_EQ(p1.size(), p2.size());
  ASSERT_GT(p1.size(), 0u);
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].at, p2[i].at);
    EXPECT_EQ(p1[i].fault, p2[i].fault);
    EXPECT_EQ(p1[i].outage, p2[i].outage);
    // Events are serialized: next failure never before the prior repair.
    if (i > 0) {
      EXPECT_GE(p1[i].at, p1[i - 1].at + p1[i - 1].outage);
    }
  }
  // A different seed produces a different storm.
  bool differs = other.size() != p1.size();
  for (size_t i = 0; !differs && i < p1.size(); ++i) {
    differs = other[i].at != p1[i].at || other[i].fault != p1[i].fault;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosInjectorTest, ScriptedFaultsMeasureMttr) {
  EventLoop loop;
  StopToken stop;
  bool down = false;
  ChaosInjector::Options o;
  o.probe_interval = kMicrosecond;
  ChaosInjector chaos(loop, o);
  chaos.AddFault("flag", [&down] { down = true; }, [&down] { down = false; });
  int invariant_checks = 0;
  chaos.AddInvariant("counted", [&invariant_checks]() -> std::string {
    ++invariant_checks;
    return "";
  });
  // Service is down exactly while the fault is active: MTTR == outage.
  chaos.SetRecoveryProbe([&down] { return !down; });
  chaos.ScheduleFail(10 * kMicrosecond, 0, 30 * kMicrosecond);
  chaos.ScheduleFail(100 * kMicrosecond, 0, 20 * kMicrosecond);
  chaos.Start(stop);
  loop.RunFor(kMillisecond);

  EXPECT_EQ(chaos.injections(), 2u);
  EXPECT_EQ(chaos.recoveries(), 2u);
  EXPECT_EQ(chaos.violations(), 0u);
  EXPECT_EQ(chaos.mttr().count(), 2u);
  EXPECT_EQ(chaos.mttr().max(), 30 * kMicrosecond);
  EXPECT_EQ(invariant_checks, 2);  // once after each recovery
}

TEST(ChaosInjectorTest, NoRecoveryWithinTimeoutIsViolation) {
  EventLoop loop;
  StopToken stop;
  ChaosInjector::Options o;
  o.probe_interval = kMicrosecond;
  o.probe_timeout = 50 * kMicrosecond;
  ChaosInjector chaos(loop, o);
  chaos.AddFault("wedge", [] {}, [] {});
  chaos.SetRecoveryProbe([] { return false; });  // never comes back
  chaos.ScheduleFail(10 * kMicrosecond, 0, 20 * kMicrosecond);
  chaos.Start(stop);
  loop.RunFor(kMillisecond);

  EXPECT_EQ(chaos.injections(), 1u);
  EXPECT_EQ(chaos.recoveries(), 0u);
  EXPECT_EQ(chaos.violations(), 1u);
  ASSERT_EQ(chaos.violation_log().size(), 1u);
  EXPECT_NE(chaos.violation_log()[0].find("no recovery"), std::string::npos);
}

TEST(ChaosInjectorTest, TraceDigestReproducible) {
  auto run = []() {
    EventLoop loop;
    StopToken stop;
    bool down = false;
    ChaosInjector::Options o;
    o.seed = 99;
    o.mean_interval = 100 * kMicrosecond;
    o.min_outage = 5 * kMicrosecond;
    o.max_outage = 40 * kMicrosecond;
    o.probe_interval = kMicrosecond;
    ChaosInjector chaos(loop, o);
    chaos.AddFault("flag", [&down] { down = true; }, [&down] { down = false; });
    chaos.SetRecoveryProbe([&down] { return !down; });
    chaos.ScheduleRandom(0, 2 * kMillisecond);
    chaos.Start(stop);
    loop.RunFor(5 * kMillisecond);
    return chaos.TraceDigest();
  };
  std::string d1 = run();
  std::string d2 = run();
  EXPECT_EQ(d1, d2);
  EXPECT_FALSE(d1.empty());
}

}  // namespace
}  // namespace cxlpool::sim
