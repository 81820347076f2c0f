// core::Clock and core::Reactor — the event-core's time source and the
// handler-driven loop the packet simulators run on. Pins monotonicity,
// (time, FIFO) dispatch order and the event budget of run().
#include "core/clock.hpp"

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bwshare::core {
namespace {

TEST(Clock, AdvancesMonotonically) {
  Clock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance_to(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  clock.advance_to(2.5);  // standing still is allowed
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  clock.advance_to(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(Clock, RefusesToRunBackwards) {
  Clock clock;
  clock.advance_to(5.0);
  EXPECT_THROW(clock.advance_to(4.0), Error);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
}

TEST(Reactor, DispatchesInTimeOrder) {
  Reactor reactor;
  std::vector<int> order;
  reactor.schedule_at(3.0, [&] { order.push_back(3); });
  reactor.schedule_at(1.0, [&] { order.push_back(1); });
  reactor.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(reactor.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(reactor.now(), 3.0);
}

TEST(Reactor, SimultaneousEventsAreFifo) {
  Reactor reactor;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    reactor.schedule_at(1.0, [&order, i] { order.push_back(i); });
  reactor.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Reactor, HandlersCanScheduleMoreEvents) {
  Reactor reactor;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) reactor.schedule_in(1.0, chain);
  };
  reactor.schedule_in(1.0, chain);
  reactor.run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(reactor.now(), 10.0);
}

TEST(Reactor, RunStopsAtTheEventBudget) {
  Reactor reactor;
  int fired = 0;
  reactor.schedule_at(1.0, [&] { ++fired; });
  reactor.schedule_at(5.0, [&] { ++fired; });
  EXPECT_EQ(reactor.run(1), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(reactor.empty());
  EXPECT_DOUBLE_EQ(reactor.now(), 1.0);  // the unrun event moved nothing
  EXPECT_EQ(reactor.run(1), 1u);         // a later run resumes the queue
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(reactor.empty());
}

TEST(Reactor, SelfReschedulingHandlerStopsAtTheBudget) {
  // A simulation that never drains must still end: the budget bounds the
  // handlers run, not simulated time.
  Reactor reactor;
  size_t fired = 0;
  std::function<void()> forever = [&] {
    ++fired;
    reactor.schedule_in(0.5, forever);
  };
  reactor.schedule_in(0.0, forever);
  EXPECT_EQ(reactor.run(1000), 1000u);
  EXPECT_EQ(fired, 1000u);
  EXPECT_FALSE(reactor.empty());
  EXPECT_DOUBLE_EQ(reactor.now(), 999 * 0.5);
}

TEST(Reactor, ZeroBudgetRunsNothing) {
  Reactor reactor;
  int fired = 0;
  reactor.schedule_at(1.0, [&] { ++fired; });
  EXPECT_EQ(reactor.run(0), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(reactor.now(), 0.0);
}

TEST(Reactor, CannotScheduleInThePast) {
  Reactor reactor;
  reactor.schedule_at(5.0, [] {});
  reactor.run();
  EXPECT_THROW(reactor.schedule_at(1.0, [] {}), Error);
  EXPECT_THROW(reactor.schedule_in(-1.0, [] {}), Error);
}

}  // namespace
}  // namespace bwshare::core
