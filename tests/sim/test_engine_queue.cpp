// The event-core (core::EventQueue finish-time and wake-up heaps) against
// the reference linear scans that EngineConfig::cross_check re-derives at
// every event: the next compute wake-up and next completion times, the
// completing transfer (ties to the lowest record), every queue key, and
// every task the wake sweep wakes — plus the decision to end the sweep.
// A cross_check replay must not throw and must be bit-identical to the
// plain one.
//
// The staggered fuzz here deliberately forces mid-flight re-predictions in
// both directions: hotspot fan-ins make every new transfer shrink its
// component's rates (finish times grow, increase-key), every completion
// grows them again (finish times shrink, decrease-key), and a positive
// barrier cost overshoots predictions so late completions clamp and
// barrier releases cascade through the wake sweep.
#include <cstdint>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "topo/fattree.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {
namespace {

SimResult run_cost(const AppTrace& trace, const topo::ClusterSpec& cluster,
                   const Placement& placement,
                   const flowsim::RateProvider& provider,
                   double barrier_cost) {
  EngineConfig cfg;
  cfg.barrier_cost = barrier_cost;
  return run_simulation(trace, cluster, placement, provider, cfg);
}

class QueueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(QueueFuzz, HeapIsBitIdenticalToScanOnChurningTraces) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 333331 + 7);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace = churn_trace(static_cast<uint64_t>(GetParam()), tasks);
  ASSERT_NO_THROW(trace.validate());
  // A positive barrier cost overshoots in-flight predictions, exercising
  // the clamped late-completion path of the queue.
  const double barrier_cost = GetParam() % 2 == 0 ? 0.0 : 5e-3;
  const auto cluster = topo::ClusterSpec::uniform(
      "queuefuzz", (tasks + 1) / 2, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const flowsim::FluidRateProvider provider(cluster.network());
  EngineConfig cfg;
  cfg.barrier_cost = barrier_cost;
  expect_cross_check_clean(trace, cluster, placement, provider, Scenario{},
                           cfg);
}

TEST_P(QueueFuzz, HeapMatchesScanUnderFatTreeCoupling) {
  // Oversubscribed inner links couple endpoint-disjoint transfers into one
  // component: a single completion then re-predicts many finish times at
  // once, all of which the heap must re-key before the next pop.
  Rng rng(static_cast<uint64_t>(GetParam()) * 777001 + 3);
  const int tasks = 8;
  const auto trace = churn_trace(static_cast<uint64_t>(GetParam()) + 100, tasks);
  ASSERT_NO_THROW(trace.validate());
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto cluster = topo::ClusterSpec::uniform("queuetree", tasks, 1, cal);
  topo::FatTree::Params params;
  params.num_hosts = tasks;
  params.radix = 4;
  params.host_bandwidth = cal.link_bandwidth;
  params.uplink_factor = 0.5;
  params.num_core = 1;
  const flowsim::FluidRateProvider provider(cal, topo::FatTree(params));
  const auto placement =
      make_placement(SchedulingPolicy::kRoundRobinNode, cluster, tasks);

  expect_cross_check_clean(trace, cluster, placement, provider);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueFuzz, ::testing::Range(0, 10));

TEST(QueueDeterminism, RepeatedHeapRunsAreIdentical) {
  const auto trace = churn_trace(42, 7);
  const auto cluster = topo::ClusterSpec::uniform(
      "queuedet", 4, 2, topo::myrinet2000_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRoundRobinNode, cluster, 7);
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto a = run_cost(trace, cluster, placement, provider, 1e-3);
  const auto b = run_cost(trace, cluster, placement, provider, 1e-3);
  expect_bit_identical(a, b);
}

// --- the wake sweep -------------------------------------------------------
//
// wake_computers() tombstones each woken entry of its sorted batch in
// place and re-queues only the un-woken ones when the sweep ends.
// These traces pin the cases that make the tombstone per entry: a second
// entry with a woken task's id, and a drain that grows mid-sweep on both
// sides of the sweep position. cross_check (d) re-derives every wake and
// the end of every sweep; the makespans are pinned exactly.

TEST(WakeSweep, ZeroLengthComputeBehindTheSweepIsRequeued) {
  // Every task wakes at t=1 and re-enters a zero-length compute, due now:
  // a second entry with the id just woken, behind the sweep position. It
  // must survive the sweep (dropping it deadlocks the task; keeping the
  // woken entry too wakes the task twice).
  constexpr int kTasks = 6;
  AppTrace trace(kTasks);
  for (TaskId t = 0; t < kTasks; ++t) {
    trace.push(t, Event::compute(1.0));
    trace.push(t, Event::compute(0.0));
  }
  trace.push_barrier_all();
  for (TaskId t = 0; t < kTasks; ++t) trace.push(t, Event::compute(0.25));
  const auto cluster = topo::ClusterSpec::uniform(
      "wakedup", kTasks, 1, topo::gigabit_ethernet_calibration());
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto result = expect_cross_check_clean(
      trace, cluster, identity_placement(kTasks), provider);
  EXPECT_EQ(result.makespan, 1.25);
}

TEST(WakeSweep, BarrierReleaseGrowsTheDrainOnBothSidesOfTheSweep) {
  // Job 0 (tasks 1-4) meets at a barrier; task 1 arrives last, at t=1,
  // from inside the sweep. The release charges the barrier cost (the clock
  // jumps to 1.125) and starts zero-length computes on tasks 1-4, so the
  // drain grows mid-sweep: ids 1 (a second entry) and 2-4, on both sides of
  // the sweep position, plus job 1's tasks 0 and 5, whose computes fell due
  // during the cost interval. The sweep wakes 2-5; 0 and 1 are re-queued.
  AppTrace trace(6);
  for (const TaskId t : {2, 3, 4}) trace.push(t, Event::compute(0.5));
  trace.push(1, Event::compute(1.0));
  for (TaskId t = 1; t <= 4; ++t) {
    trace.push(t, Event::barrier());
    trace.push(t, Event::compute(0.0));
    trace.push(t, Event::compute(0.25));
  }
  for (const TaskId t : {0, 5}) {
    trace.push(t, Event::compute(1.0625));
    trace.push(t, Event::compute(0.5));
  }
  Scenario scenario;
  scenario.job_of = {1, 0, 0, 0, 0, 1};
  const auto cluster = topo::ClusterSpec::uniform(
      "wakegrow", 6, 1, topo::gigabit_ethernet_calibration());
  const flowsim::FluidRateProvider provider(cluster.network());
  EngineConfig cfg;
  cfg.barrier_cost = 0.125;
  const auto result = expect_cross_check_clean(
      trace, cluster, identity_placement(6), provider, scenario, cfg);
  // Job 1's wakes slip to the end of the cost interval: 1.125 + 0.5.
  EXPECT_EQ(result.makespan, 1.625);
  EXPECT_EQ(result.tasks[1].finish_time, 1.375);
}

TEST(WakeSweep, LargeSameInstantBatchMatchesTheScan) {
  // One matching round on 4096 tasks: all 2048 receivers finish their
  // equal transfers at one instant and wake in a single sweep.
  constexpr int kTasks = 4096;
  const auto trace = matching_trace(kTasks, 1, /*seed=*/5);
  const auto cluster = topo::ClusterSpec::uniform(
      "wakebatch", kTasks, 1, topo::gigabit_ethernet_calibration());
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto result = expect_cross_check_clean(
      trace, cluster, identity_placement(kTasks), provider);
  EXPECT_EQ(result.comms.size(), static_cast<size_t>(kTasks / 2));
  EXPECT_EQ(result.makespan, 0.042711666666666669);
}

}  // namespace
}  // namespace bwshare::sim
