#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace vmsls::sim {
namespace {

TEST(Simulator, StartsAtCycleZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(10, [&] { order.push_back(2); });
  s.schedule_in(5, [&] { order.push_back(1); });
  s.schedule_in(20, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 20u);
}

TEST(Simulator, SameCycleIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_in(7, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ZeroDelayRunsLaterSameCycle) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(0, [&] {
    order.push_back(1);
    s.schedule_in(0, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 0u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int fired = 0;
  s.schedule_in(1, [&] {
    ++fired;
    s.schedule_in(4, [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 5u);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.schedule_in(10, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(5, [] {}), std::logic_error);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_in(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunRespectsDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule_in(10, [&] { ++fired; });
  s.schedule_in(100, [&] { ++fired; });
  s.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.idle());
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsEventsExecuted) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_in(static_cast<Cycles>(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator s;
    std::vector<Cycles> times;
    for (int i = 0; i < 50; ++i)
      s.schedule_in(static_cast<Cycles>((i * 37) % 17), [&times, &s] { times.push_back(s.now()); });
    s.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, StatsRegistryShared) {
  Simulator s;
  s.stats().counter("x").add(3);
  EXPECT_EQ(s.stats().counter_value("x"), 3u);
}

// --- calendar-wheel internals: far-future heap fallback and its seams ---

TEST(Simulator, FarFutureEventsBeyondWheelHorizon) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(1'000'000, [&] { order.push_back(3); });  // far beyond the wheel
  s.schedule_in(5'000, [&] { order.push_back(2); });      // just beyond the wheel
  s.schedule_in(10, [&] { order.push_back(1); });         // in the wheel
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 1'000'000u);
}

TEST(Simulator, SameCycleFifoAcrossWheelHeapBoundary) {
  // First event lands at t=6000 while that cycle is beyond the wheel
  // horizon (heap); the second is scheduled for the same cycle later, from
  // t=5000, when it falls inside the wheel. FIFO order must still hold.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(6'000, [&] { order.push_back(1); });
  s.schedule_at(5'000, [&] { s.schedule_at(6'000, [&] { order.push_back(2); }); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, WheelWrapsAcrossManyHorizons) {
  // A chain that hops forward by more than the wheel size each time,
  // exercising slot reuse across wraps.
  Simulator s;
  int fired = 0;
  EventFn hop = [&] {
    ++fired;
    if (fired < 10) {
      s.schedule_in(4'096 + 7, [&] {
        ++fired;
        if (fired < 10) s.schedule_in(13, [&] { ++fired; });
      });
    }
  };
  s.schedule_in(1, std::move(hop));
  s.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now(), 1u + 4'096u + 7u + 13u);
}

TEST(Simulator, ScheduleNowRunsAfterPendingSameCycleEvents) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(5, [&] {
    order.push_back(1);
    s.schedule_now([&] { order.push_back(3); });
  });
  s.schedule_in(5, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 5u);
}

TEST(Simulator, NodeRecyclingAcrossManyEvents) {
  // Far more events than one pool slab, all recycled; counts must balance.
  Simulator s;
  u64 sink = 0;
  for (int round = 0; round < 8; ++round) {
    for (u64 i = 0; i < 2'000; ++i) s.schedule_in(i % 131, [&sink] { ++sink; });
    s.run();
  }
  EXPECT_EQ(sink, 16'000u);
  EXPECT_EQ(s.events_executed(), 16'000u);
  EXPECT_EQ(s.events_scheduled(), 16'000u);
}

TEST(Simulator, ThrowingEventPropagatesAndQueueSurvives) {
  Simulator s;
  int fired = 0;
  s.schedule_in(1, [] { throw std::runtime_error("trap"); });
  s.schedule_in(2, [&] { ++fired; });
  EXPECT_THROW(s.run(), std::runtime_error);
  s.run();  // the remaining event is still runnable
  EXPECT_EQ(fired, 1);
}

// --- EventFn: small-buffer, move-only callback type ---

TEST(EventFn, InlineForSmallCallables) {
  struct Small {
    u64 a, b, c;
    u64* out;
    void operator()() { *out = a + b + c; }
  };
  static_assert(EventFn::fits_inline<Small>());
  u64 result = 0;
  EventFn fn = Small{1, 2, 3, &result};
  fn();
  EXPECT_EQ(result, 6u);
}

TEST(EventFn, HeapFallbackForLargeCallables) {
  struct Big {
    u64 pad[16];
    u64* out;
    void operator()() { *out = pad[0] + pad[15]; }
  };
  static_assert(!EventFn::fits_inline<Big>());
  u64 result = 0;
  Big big{};
  big.pad[0] = 40;
  big.pad[15] = 2;
  big.out = &result;
  EventFn fn = big;
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  moved();
  EXPECT_EQ(result, 42u);
}

TEST(EventFn, MoveOnlyCapturesWork) {
  auto payload = std::make_unique<int>(7);
  int result = 0;
  EventFn fn = [p = std::move(payload), &result] { result = *p; };
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(result, 7);
}

TEST(EventFn, SchedulableWithMoveOnlyCapture) {
  Simulator s;
  auto payload = std::make_unique<int>(9);
  int result = 0;
  s.schedule_in(3, [p = std::move(payload), &result] { result = *p; });
  s.run();
  EXPECT_EQ(result, 9);
}

// --- InlineFn<R(Args...)>: the same callback type with arguments ---

using AddrFn = InlineFn<void(PhysAddr)>;

TEST(InlineFn, PassesArgumentsInline) {
  struct Sum {
    u64 base;
    u64* out;
    void operator()(PhysAddr pa) { *out = base + pa; }
  };
  static_assert(AddrFn::fits_inline<Sum>());
  static_assert(sizeof(AddrFn) == sizeof(EventFn));
  u64 result = 0;
  AddrFn fn = Sum{0x100, &result};
  fn(0x20);
  EXPECT_EQ(result, 0x120u);
  fn(0x1);  // callable more than once; state persists
  EXPECT_EQ(result, 0x101u);
}

TEST(InlineFn, HeapFallbackPassesArguments) {
  struct Big {
    u64 pad[16];
    u64* out;
    void operator()(PhysAddr pa) { *out = pad[0] + pad[15] + pa; }
  };
  static_assert(!AddrFn::fits_inline<Big>());
  u64 result = 0;
  Big big{};
  big.pad[0] = 40;
  big.pad[15] = 2;
  big.out = &result;
  AddrFn fn = big;
  AddrFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  moved(1000);
  EXPECT_EQ(result, 1042u);
}

TEST(InlineFn, MoveOnlyCapturesAndMoveAssignment) {
  auto payload = std::make_unique<u64>(7);
  u64 result = 0;
  AddrFn fn = [p = std::move(payload), &result](PhysAddr pa) { result = *p * pa; };
  AddrFn other = [&result](PhysAddr) { result = 1; };
  other = std::move(fn);  // destroys the old target, takes the move-only one
  other(6);
  EXPECT_EQ(result, 42u);
  other.reset();
  EXPECT_FALSE(static_cast<bool>(other));
}

TEST(InlineFn, ReturnsValuesAndReferenceArguments) {
  InlineFn<u64(const std::vector<u64>&)> sum = [](const std::vector<u64>& v) {
    u64 s = 0;
    for (const u64 x : v) s += x;
    return s;
  };
  EXPECT_EQ(sum(std::vector<u64>{1, 2, 3}), 6u);
  // A void signature accepts, and discards, a callable's return value.
  int calls = 0;
  InlineFn<void(int)> fn = [&calls](int k) { return calls += k; };
  fn(2);
  EXPECT_EQ(calls, 2);
}

// --- clock domains ---

TEST(ClockDomain, UnityRatioIsIdentity) {
  ClockDomain c{1, 1};
  EXPECT_EQ(c.to_ref(17), 17u);
  EXPECT_EQ(c.from_ref(17), 17u);
}

TEST(ClockDomain, FasterDomainCompressesToRef) {
  ClockDomain cpu{10, 3};  // 3.33x faster than fabric
  EXPECT_EQ(cpu.to_ref(10), 3u);   // 10 CPU cycles = 3 fabric cycles
  EXPECT_EQ(cpu.to_ref(1), 1u);    // rounds up
  EXPECT_EQ(cpu.to_ref(11), 4u);   // 3.3 -> 4
  EXPECT_EQ(cpu.from_ref(3), 10u);
}

TEST(ClockDomain, RatioValue) {
  ClockDomain c{10, 3};
  EXPECT_NEAR(c.ratio(), 3.333, 0.001);
}

TEST(ClockDomain, ToRefNeverLosesWork) {
  ClockDomain c{7, 2};
  for (Cycles local = 1; local < 100; ++local) {
    const Cycles ref = c.to_ref(local);
    // Converting back must cover at least the original local cycles.
    EXPECT_GE(c.from_ref(ref) + 1, local);
  }
}

}  // namespace
}  // namespace vmsls::sim
