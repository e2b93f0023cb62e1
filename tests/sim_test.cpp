// Tests for the discrete-event engine, coroutine tasks and sync
// primitives — the deterministic substrate everything else builds on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/thread_pool.hpp"

namespace prdma::sim {
namespace {

using namespace prdma::sim::literals;

// ---------------------------------------------------------------- Simulator

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTimestampRunsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  std::vector<int> expect(50);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule(10, [&] {
    sim.schedule(15, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 25u);
}

TEST(Simulator, SchedulingInThePastClampsToNow) {
  Simulator sim;
  SimTime seen = UINT64_MAX;
  sim.schedule(10, [&] {
    sim.schedule_at(3, [&] { seen = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(seen, 10u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int ran = 0;
  sim.schedule(10, [&] { ++ran; });
  sim.schedule(20, [&] { ++ran; });
  sim.schedule(21, [&] { ++ran; });
  sim.run_until(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int ran = 0;
  sim.schedule(1, [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule(2, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.stopped());
  sim.clear_stop();
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  Rng rng(42);
  SimTime last = 0;
  bool monotonic = true;
  for (int i = 0; i < 20000; ++i) {
    sim.schedule(rng.uniform(0, 1'000'000), [&] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.events_executed(), 20000u);
}

TEST(Simulator, SameTimestampFifoStressAcrossCollidingTimes) {
  // Heavy duplicate-timestamp load: 200 events on each of 64 distinct
  // times, scheduled round-robin so collisions interleave in the heap.
  // Within a timestamp, execution order must equal scheduling order —
  // the (time, seq) contract — regardless of heap arity or slot reuse.
  Simulator sim;
  std::vector<std::vector<int>> per_time(64);
  for (int round = 0; round < 200; ++round) {
    for (int t = 0; t < 64; ++t) {
      sim.schedule_at(static_cast<SimTime>(t * 10), [&per_time, t, round] {
        per_time[static_cast<std::size_t>(t)].push_back(round);
      });
    }
  }
  sim.run();
  for (const auto& order : per_time) {
    ASSERT_EQ(order.size(), 200u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  }
  EXPECT_EQ(sim.events_executed(), 200u * 64u);
}

TEST(Simulator, SteadyStateSchedulingIsAllocationFree) {
  // Warm up to the high-water mark, then keep a self-rescheduling ring
  // running: the slab free-list and heap capacity must absorb all
  // further churn with zero growth of either counter.
  Simulator sim;
  std::uint64_t remaining = 50'000;
  struct Ballast {  // big enough to defeat any std::function-style SSO
    unsigned char bytes[64] = {};
  };
  const Ballast ballast;
  std::function<void()> pump = [&] {
    if (remaining == 0) return;
    --remaining;
    sim.schedule((remaining % 13) + 1, [&sim, &pump, ballast] { pump(); });
  };
  for (int i = 0; i < 100; ++i) pump();
  for (int i = 0; i < 5'000; ++i) sim.step();  // warm-up window
  const std::uint64_t pool0 = sim.pool_allocations();
  const std::uint64_t heap0 = inline_fn_heap_allocs();
  sim.run();
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sim.pool_allocations(), pool0) << "slab or heap vector grew";
  EXPECT_EQ(inline_fn_heap_allocs(), heap0) << "a capture fell back to heap";
}

TEST(Simulator, SlabRecyclesSlotsAcrossEventWaves) {
  Simulator sim;
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 100; ++i) sim.schedule(i, [] {});
    sim.run();
  }
  // Ten waves of 100 concurrent events each: the slab never needs more
  // than one wave's worth of slots (rounded up to the chunk size).
  EXPECT_LE(sim.slab_slots(), 256u);
  EXPECT_EQ(sim.events_executed(), 1000u);
}

TEST(Simulator, ScheduleReservedRunsAtTheReservedKey) {
  // A reserved seq sits between the events scheduled before and after
  // the reservation, even when the entry itself is pushed much later:
  // same-time ties order by the reserved seq, not by the push.
  Simulator sim;
  std::vector<char> order;
  sim.schedule_at(100, [&] { order.push_back('a'); });
  const std::uint64_t seq = sim.reserve_seq();
  sim.schedule_at(100, [&] { order.push_back('c'); });
  sim.schedule_at(10, [&] {
    sim.schedule_at(100, [&] { order.push_back('d'); });
    sim.schedule_reserved(100, seq, [&] { order.push_back('b'); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, ScheduleReservedAtTheRunningTimeStillOrdersBySeq) {
  // The running event pushes a reserved entry for its own timestamp:
  // the entry runs next, ahead of the same-time event scheduled after
  // the reservation but before the push.
  Simulator sim;
  std::vector<int> order;
  std::uint64_t seq = 0;
  sim.schedule_at(50, [&] {
    order.push_back(1);
    sim.schedule_reserved(50, seq, [&] { order.push_back(2); });
  });
  seq = sim.reserve_seq();
  sim.schedule_at(50, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// -------------------------------------------------------- InlineFunction

TEST(InlineFunction, SmallCaptureStaysInlineWithoutAllocating) {
  const std::uint64_t heap0 = inline_fn_heap_allocs();
  int hits = 0;
  unsigned char payload[kEventInlineBytes - 16] = {};
  InlineTask task([&hits, payload] { hits += 1 + payload[0]; });
  EXPECT_TRUE(task.is_inline());
  EXPECT_EQ(inline_fn_heap_allocs(), heap0);
  task();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeapAndStillRuns) {
  const std::uint64_t heap0 = inline_fn_heap_allocs();
  int hits = 0;
  unsigned char payload[kEventInlineBytes + 64] = {};
  InlineTask task([&hits, payload] { hits += 1 + payload[0]; });
  EXPECT_FALSE(task.is_inline());
  EXPECT_EQ(inline_fn_heap_allocs(), heap0 + 1);
  task();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, MoveTransfersTheCallable) {
  int hits = 0;
  InlineTask a([&hits] { ++hits; });
  InlineTask b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  InlineTask c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, MoveOnlyCapturesWork) {
  // std::function rejects move-only captures; the engine's tasks and
  // the pool's jobs rely on them (packaged_task, unique_ptr).
  auto value = std::make_unique<int>(41);
  InlineFunction<int(), 64> fn([v = std::move(value)] { return *v + 1; });
  EXPECT_EQ(fn(), 42);
}

TEST(InlineFunction, DestroysTheCaptureExactlyOnce) {
  const auto token = std::make_shared<int>(7);
  EXPECT_EQ(token.use_count(), 1);
  {
    InlineTask task([token] {});
    EXPECT_EQ(token.use_count(), 2);
    InlineTask moved(std::move(task));
    EXPECT_EQ(token.use_count(), 2) << "relocate must not duplicate";
    moved.reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, ConsumeInvokesAndLeavesEmpty) {
  const auto token = std::make_shared<int>(0);
  InlineTask task([token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  task.consume();
  EXPECT_EQ(*token, 1);
  EXPECT_FALSE(static_cast<bool>(task));
  EXPECT_EQ(token.use_count(), 1) << "consume must destroy the capture";
}

TEST(InlineFunction, EmplaceReplacesTheHeldCallable) {
  const auto old_token = std::make_shared<int>(0);
  InlineTask task([old_token] {});
  EXPECT_EQ(old_token.use_count(), 2);
  int hits = 0;
  task.emplace([&hits] { ++hits; });
  EXPECT_EQ(old_token.use_count(), 1) << "emplace must destroy the old";
  task();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, PassesArgumentsThrough) {
  InlineFunction<int(int, int), 32> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(20, 22), 42);
}

// ---------------------------------------------------------------- Tasks

TEST(Task, DelayAdvancesSimTime) {
  Simulator sim;
  SimTime when = 0;
  spawn([](Simulator& s, SimTime& out) -> Task<> {
    co_await delay(s, 100_us);
    out = s.now();
  }(sim, when));
  sim.run();
  EXPECT_EQ(when, 100_us);
}

TEST(Task, NestedAwaitPropagatesValues) {
  Simulator sim;
  int result = 0;

  auto inner = [](Simulator& s) -> Task<int> {
    co_await delay(s, 10);
    co_return 21;
  };
  auto outer = [&inner](Simulator& s, int& out) -> Task<> {
    const int a = co_await inner(s);
    const int b = co_await inner(s);
    out = a + b;
  };
  spawn(outer(sim, result));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Simulator sim;
  bool caught = false;

  auto thrower = [](Simulator& s) -> Task<int> {
    co_await delay(s, 5);
    throw std::runtime_error("boom");
  };
  auto catcher = [&thrower](Simulator& s, bool& flag) -> Task<> {
    try {
      (void)co_await thrower(s);
    } catch (const std::runtime_error&) {
      flag = true;
    }
  };
  spawn(catcher(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, ImmediatelyReadyTaskCompletesWithoutDelay) {
  Simulator sim;
  std::string out;
  auto instant = []() -> Task<std::string> { co_return "done"; };
  auto runner = [&instant](std::string& o) -> Task<> {
    o = co_await instant();
  };
  spawn(runner(out));
  sim.run();
  EXPECT_EQ(out, "done");
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    spawn([](Simulator& s, std::vector<int>& ord, int id) -> Task<> {
      co_await delay(s, static_cast<SimTime>(100 - id * 10));
      ord.push_back(id);
    }(sim, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(Task, MoveOnlyResultTypesWork) {
  Simulator sim;
  std::unique_ptr<int> got;
  auto maker = []() -> Task<std::unique_ptr<int>> {
    co_return std::make_unique<int>(7);
  };
  auto runner = [&maker](std::unique_ptr<int>& out) -> Task<> {
    out = co_await maker();
  };
  spawn(runner(got));
  sim.run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 7);
}

// ---------------------------------------------------------------- Event

TEST(Event, WaitersResumeOnSet) {
  Simulator sim;
  Event ev(sim);
  int resumed = 0;
  for (int i = 0; i < 3; ++i) {
    spawn([](Event& e, int& n) -> Task<> {
      const bool ok = co_await e.wait();
      if (ok) ++n;
    }(ev, resumed));
  }
  sim.schedule(50, [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(resumed, 3);
  EXPECT_TRUE(ev.is_set());
}

TEST(Event, WaitOnSetEventIsImmediate) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  bool ok = false;
  spawn([](Event& e, bool& o) -> Task<> { o = co_await e.wait(); }(ev, ok));
  sim.run();
  EXPECT_TRUE(ok);
}

TEST(Event, AbortWakesWaitersWithFalse) {
  Simulator sim;
  Event ev(sim);
  int aborted = 0;
  spawn([](Event& e, int& n) -> Task<> {
    if (!co_await e.wait()) ++n;
  }(ev, aborted));
  sim.schedule(10, [&] { ev.abort(); });
  sim.run();
  EXPECT_EQ(aborted, 1);
  EXPECT_FALSE(ev.is_set());
}

TEST(Event, ResetReArms) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
  bool ok = false;
  spawn([](Event& e, bool& o) -> Task<> { o = co_await e.wait(); }(ev, ok));
  sim.schedule(5, [&] { ev.set(); });
  sim.run();
  EXPECT_TRUE(ok);
}

TEST(Event, WaitersResumeInWaitOrderAndMayWaitAgain) {
  // Waiters resume in the order they suspended; each one then waits on
  // the re-armed event again, so the second round must see the same
  // order through a list that was emptied and refilled.
  Simulator sim;
  Event ev(sim);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    spawn([](Event& e, std::vector<int>& out, int id) -> Task<> {
      for (int round = 0; round < 2; ++round) {
        co_await e.wait();
        out.push_back(id);
        e.reset();
      }
    }(ev, order, i));
  }
  EXPECT_EQ(ev.waiter_count(), 4u);
  sim.schedule(10, [&] { ev.set(); });
  sim.schedule(20, [&] {
    EXPECT_EQ(ev.waiter_count(), 4u);
    ev.set();
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
  EXPECT_EQ(ev.waiter_count(), 0u);
}

// ---------------------------------------------------------------- Channel

TEST(Channel, DeliversInFifoOrder) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  spawn([](Channel<int>& c, std::vector<int>& out) -> Task<> {
    for (;;) {
      auto v = co_await c.recv();
      if (!v) break;
      out.push_back(*v);
    }
  }(ch, got));
  sim.schedule(1, [&] {
    ch.send(1);
    ch.send(2);
    ch.send(3);
  });
  sim.schedule(2, [&] { ch.close(); });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, RecvBeforeSendSuspends) {
  Simulator sim;
  Channel<int> ch(sim);
  SimTime when = 0;
  int got = 0;
  spawn([](Simulator& s, Channel<int>& c, SimTime& w, int& g) -> Task<> {
    auto v = co_await c.recv();
    w = s.now();
    g = v.value_or(-1);
  }(sim, ch, when, got));
  sim.schedule(77, [&] { ch.send(9); });
  sim.run();
  EXPECT_EQ(got, 9);
  EXPECT_EQ(when, 77u);
}

TEST(Channel, MultipleWaitersServedFifo) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<std::pair<int, int>> got;  // (waiter, value)
  for (int w = 0; w < 3; ++w) {
    spawn([](Channel<int>& c, std::vector<std::pair<int, int>>& out,
             int waiter) -> Task<> {
      auto v = co_await c.recv();
      if (v) out.emplace_back(waiter, *v);
    }(ch, got, w));
  }
  sim.schedule(1, [&] {
    ch.send(10);
    ch.send(20);
    ch.send(30);
  });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_pair(0, 10));
  EXPECT_EQ(got[1], std::make_pair(1, 20));
  EXPECT_EQ(got[2], std::make_pair(2, 30));
}

TEST(Channel, CloseWakesPendingWaiterWithNullopt) {
  Simulator sim;
  Channel<int> ch(sim);
  bool got_nullopt = false;
  spawn([](Channel<int>& c, bool& flag) -> Task<> {
    auto v = co_await c.recv();
    flag = !v.has_value();
  }(ch, got_nullopt));
  sim.schedule(10, [&] { ch.close(); });
  sim.run();
  EXPECT_TRUE(got_nullopt);
}

TEST(Channel, SendToClosedChannelIsDropped) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.close();
  ch.send(5);
  EXPECT_EQ(ch.size(), 0u);
}

TEST(Channel, ResetDropsQueueAndReopens) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.send(1);
  ch.send(2);
  ch.reset();
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_FALSE(ch.closed());
  ch.send(3);
  EXPECT_EQ(ch.size(), 1u);
}

TEST(Channel, TryRecvDoesNotBlock) {
  Simulator sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(4);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4);
}

// ---------------------------------------------------------------- Semaphore

TEST(Semaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    spawn([](Simulator& s, Semaphore& sm, int& act, int& pk) -> Task<> {
      co_await sm.acquire();
      SemaphoreGuard guard(sm);
      ++act;
      pk = std::max(pk, act);
      co_await delay(s, 100);
      --act;
    }(sim, sem, active, peak));
  }
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Semaphore, WaitersAreServedInArrivalOrder) {
  Simulator sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    spawn([](Semaphore& sm, std::vector<int>& out, int id) -> Task<> {
      co_await sm.acquire();
      out.push_back(id);
    }(sem, order, i));
  }
  EXPECT_EQ(sem.waiting(), 5u);
  sim.schedule(10, [&] { sem.release(2); });
  sim.schedule(20, [&] {
    EXPECT_EQ(sem.waiting(), 3u);
    sem.release(4);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sem.waiting(), 0u);
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Semaphore, ReleaseWithoutWaitersIncrementsCount) {
  Simulator sim;
  Semaphore sem(sim, 0);
  sem.release(3);
  EXPECT_EQ(sem.available(), 3u);
}

// ---------------------------------------------------------------- WaitGroup

TEST(WaitGroup, WaitsForAllTasks) {
  Simulator sim;
  WaitGroup wg(sim);
  SimTime done_at = 0;
  wg.add(3);
  for (int i = 1; i <= 3; ++i) {
    spawn([](Simulator& s, WaitGroup& w, int id) -> Task<> {
      co_await delay(s, static_cast<SimTime>(id * 100));
      w.done();
    }(sim, wg, i));
  }
  spawn([](Simulator& s, WaitGroup& w, SimTime& at) -> Task<> {
    co_await w.wait();
    at = s.now();
  }(sim, wg, done_at));
  sim.run();
  EXPECT_EQ(done_at, 300u);
}

TEST(WaitGroup, WaitWithNothingOutstandingResolves) {
  Simulator sim;
  WaitGroup wg(sim);
  bool resolved = false;
  spawn([](WaitGroup& w, bool& f) -> Task<> {
    co_await w.wait();
    f = true;
  }(wg, resolved));
  sim.run();
  EXPECT_TRUE(resolved);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(7);
  Rng b(7);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.5);
}

TEST(Rng, LognormalJitterMedianNearOne) {
  Rng rng(13);
  std::vector<double> v;
  for (int i = 0; i < 10001; ++i) v.push_back(rng.lognormal_jitter(0.3));
  std::nth_element(v.begin(), v.begin() + 5000, v.end());
  EXPECT_NEAR(v[5000], 1.0, 0.05);
  EXPECT_EQ(rng.lognormal_jitter(0.0), 1.0);
}

// ---------------------------------------------------------------- Zipfian

class ZipfianTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfianTest, StaysInRangeAndIsSkewed) {
  const double theta = GetParam();
  const std::uint64_t n = 1000;
  ZipfianGenerator zipf(n, theta);
  Rng rng(17);
  std::vector<std::uint64_t> counts(n, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    const auto k = zipf.next(rng);
    ASSERT_LT(k, n);
    ++counts[k];
  }
  // Head (top 1% of keys) must take a disproportionate share.
  std::uint64_t head = 0;
  for (std::size_t i = 0; i < n / 100; ++i) head += counts[i];
  const double head_share = static_cast<double>(head) / draws;
  EXPECT_GT(head_share, 0.15) << "theta=" << theta;
  // Rank 0 should be the most popular key (within sampling noise).
  const auto most = std::max_element(counts.begin(), counts.end());
  EXPECT_LE(std::distance(counts.begin(), most), 3);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfianTest, ::testing::Values(0.7, 0.9, 0.99));

TEST(LatestGenerator, PrefersNewestKeys) {
  LatestGenerator latest(100);
  Rng rng(23);
  int newest_hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (latest.next(rng) >= 90) ++newest_hits;
  }
  EXPECT_GT(newest_hits, 5000);
  latest.grow();
  EXPECT_EQ(latest.size(), 101u);
  for (int i = 0; i < 100; ++i) EXPECT_LT(latest.next(rng), 101u);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 7; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 7);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i]. fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("bad");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, SubmitAcceptsMoveOnlyCallables) {
  ThreadPool pool(2);
  auto p = std::make_unique<int>(9);
  auto f = pool.submit([p = std::move(p)] { return *p * 2; });
  EXPECT_EQ(f.get(), 18);
}

TEST(ThreadPool, ParallelForPropagatesLowestIndexException) {
  // Two cells throw; which one a worker reaches first is a race, but
  // the caller must always observe the LOWEST failing index so error
  // reports don't depend on thread scheduling.
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    try {
      pool.parallel_for(64, [](std::size_t i) {
        if (i == 11 || i == 47) {
          throw std::runtime_error("cell " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 11");
    }
  }
}

TEST(ThreadPool, ParallelForRunsEveryCellDespiteAnException) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ------------------------------------------------------------- format_time

TEST(FormatTime, AdaptiveUnits) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(1500), "1.50us");
  EXPECT_EQ(format_time(2'500'000), "2.50ms");
  EXPECT_EQ(format_time(3'000'000'000ull), "3.000s");
}

TEST(TransferTime, NeverFreeForNonZeroBytes) {
  EXPECT_EQ(transfer_time(0, 1e9), 0u);
  EXPECT_GE(transfer_time(1, 100e9), 1u);
  EXPECT_EQ(transfer_time(1000, 1e9), 1000u);  // 1 GB/s -> 1 ns/B
}

}  // namespace
}  // namespace prdma::sim

// ===================================================================
// End-to-end determinism: the engine's contract is that identical
// seeds give bit-identical runs. Hold it through the FULL stack — all
// thirteen RPC systems, through the crash/recovery harness and the
// micro-benchmark — so any hidden nondeterminism (iteration order,
// uninitialised state, wall-clock leakage) fails loudly here instead
// of surfacing as an unreproducible crash schedule.
// ===================================================================

#include "bench_util/micro.hpp"
#include "fault/experiment.hpp"

namespace prdma::sim {
namespace {

TEST(Determinism, FailureRunsAreBitIdenticalForEverySystem) {
  for (const auto& info : rpcs::all_systems()) {
    fault::FailureRunConfig cfg;
    cfg.ops = 160;
    cfg.crashes = 1;
    cfg.window = 4;
    cfg.value_size = 1024;
    cfg.seed = 7;
    cfg.heavy_processing = false;
    const auto a = fault::run_with_failures(info.system, cfg);
    const auto b = fault::run_with_failures(info.system, cfg);
    EXPECT_EQ(a.total, b.total) << info.name;
    EXPECT_EQ(a.ops_completed, b.ops_completed) << info.name;
    EXPECT_EQ(a.resends, b.resends) << info.name;
    EXPECT_EQ(a.replayed, b.replayed) << info.name;
    EXPECT_EQ(a.crashes, b.crashes) << info.name;
    EXPECT_EQ(a.oracle_violations, b.oracle_violations) << info.name;
  }
}

TEST(Determinism, MicroBenchIsBitIdenticalForEverySystem) {
  for (const auto& info : rpcs::all_systems()) {
    bench::MicroConfig cfg;
    cfg.objects = 512;
    cfg.object_size = 1024;
    cfg.ops = 300;
    cfg.seed = 11;
    const auto a = bench::run_micro(info.system, cfg);
    const auto b = bench::run_micro(info.system, cfg);
    EXPECT_EQ(a.duration, b.duration) << info.name;
    EXPECT_EQ(a.ops_completed, b.ops_completed) << info.name;
    EXPECT_EQ(a.kops, b.kops) << info.name;
    EXPECT_EQ(a.latency.mean(), b.latency.mean()) << info.name;
    EXPECT_EQ(a.latency.p99(), b.latency.p99()) << info.name;
    EXPECT_EQ(a.server.ops_processed, b.server.ops_processed) << info.name;
    EXPECT_EQ(a.server.critical_sw_ns, b.server.critical_sw_ns) << info.name;
  }
}

}  // namespace
}  // namespace prdma::sim
