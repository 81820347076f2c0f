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
// grows them again (finish times shrink, decrease-key), and barrier
// releases cascade through the wake sweep.
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

class QueueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(QueueFuzz, HeapIsBitIdenticalToScanOnChurningTraces) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 333331 + 7);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace = churn_trace(static_cast<uint64_t>(GetParam()), tasks);
  ASSERT_NO_THROW(trace.validate());
  const auto cluster = topo::ClusterSpec::uniform(
      "queuefuzz", (tasks + 1) / 2, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const flowsim::FluidRateProvider provider(cluster.network());
  expect_cross_check_clean(trace, cluster, placement, provider);
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
  const auto a = run_simulation(trace, cluster, placement, provider);
  const auto b = run_simulation(trace, cluster, placement, provider);
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
  // Tasks 0, 1 and 5 fall due at t=1 in one sweep. Task 0 wakes first and
  // re-enters a zero-length compute: a second id-0 entry, behind the sweep.
  // Task 1 wakes next and arrives last at job 0's barrier (tasks 1-4); the
  // release starts zero-length computes on tasks 1-4, so the drain grows
  // mid-sweep again: id 1 (a second entry) behind the sweep position, 2-4
  // ahead of it. The sweep wakes 2-5; 0 and 1 are re-queued and wake at
  // t=1 on the next main-loop turn.
  AppTrace trace(6);
  for (const TaskId t : {2, 3, 4}) trace.push(t, Event::compute(0.5));
  trace.push(1, Event::compute(1.0));
  for (TaskId t = 1; t <= 4; ++t) {
    trace.push(t, Event::barrier());
    trace.push(t, Event::compute(0.0));
    trace.push(t, Event::compute(0.25));
  }
  trace.push(0, Event::compute(1.0));
  trace.push(0, Event::compute(0.0));
  trace.push(0, Event::compute(0.5));
  trace.push(5, Event::compute(1.0));
  trace.push(5, Event::compute(0.5));
  Scenario scenario;
  scenario.job_of = {1, 0, 0, 0, 0, 1};
  const auto cluster = topo::ClusterSpec::uniform(
      "wakegrow", 6, 1, topo::gigabit_ethernet_calibration());
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto result = expect_cross_check_clean(
      trace, cluster, identity_placement(6), provider, scenario);
  EXPECT_EQ(result.makespan, 1.5);
  EXPECT_EQ(result.tasks[0].finish_time, 1.5);
  EXPECT_EQ(result.tasks[1].finish_time, 1.25);
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
