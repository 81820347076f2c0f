// Fault-injection determinism suite for dynamic-cluster scenarios
// (sim/scenario.hpp): node join/leave/fail churn and background
// cross-traffic scripted onto a replay. The scenario machinery must not
// disturb any of the engine's equivalence contracts — under a scripted
// trace, SolveMode::kParallel stays bit-identical to kSerial at 1/2/8
// workers, and an EngineConfig::cross_check replay (which re-solves every
// component fresh at every flush and re-derives every event choice and
// wake by linear scan) finishes without throwing, bit-identical to the
// plain one. Fuzzed over the shared churn workload and over every
// generator family under the fluid, gige-model and myrinet-model
// providers, plus targeted semantic tests for the fail/leave/join and
// background-admission rules and the seeded_scenario builder. Runs under
// the TSan CI job next to test_engine_parallel.cpp.
#include <cstdint>
#include <tuple>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/scenario.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "topo/fattree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace bwshare::sim {
namespace {

/// The determinism cross-product under one scripted scenario: the plain
/// serial replay is the reference; a cross_check replay, parallel pools of
/// 1, 2 and 8, and a cross_check replay per pool size must all reproduce it
/// bit for bit, the oracle replays without throwing.
void check_churn_determinism(const AppTrace& trace,
                             const topo::ClusterSpec& cluster,
                             const Placement& placement,
                             const flowsim::RateProvider& provider,
                             const Scenario& scenario) {
  EngineConfig cfg;
  const auto serial = expect_cross_check_clean(trace, cluster, placement,
                                               provider, scenario, cfg);
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    cfg.solve = SolveMode::kParallel;
    cfg.solve_pool = &pool;
    expect_bit_identical(serial,
                         expect_cross_check_clean(trace, cluster, placement,
                                                  provider, scenario, cfg));
  }
}

// --- scripted scenario fuzz ------------------------------------------------

class ParallelChurnScenarioFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelChurnScenarioFuzz, AllModesBitIdenticalUnderChurn) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 700001 + 29);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace = churn_trace(static_cast<uint64_t>(GetParam()), tasks);
  ASSERT_NO_THROW(trace.validate());
  const int nodes = (tasks + 1) / 2;
  const auto cluster = topo::ClusterSpec::uniform(
      "churnfuzz", nodes, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto scenario =
      churn_scenario(static_cast<uint64_t>(GetParam()) + 17, nodes);
  ASSERT_NO_THROW(scenario.validate(tasks, nodes));
  check_churn_determinism(trace, cluster, placement, provider, scenario);
}

TEST_P(ParallelChurnScenarioFuzz, FatTreeCouplingStaysDeterministic) {
  // Oversubscribed inner links merge endpoint-disjoint transfers — aborts
  // and background injections then dirty a large coupled component plus
  // small independent ones, the worst case for the flush batching.
  const int tasks = 8;
  const auto trace =
      churn_trace(static_cast<uint64_t>(GetParam()) + 1300, tasks);
  ASSERT_NO_THROW(trace.validate());
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto cluster = topo::ClusterSpec::uniform("churntree", tasks, 1, cal);
  topo::FatTree::Params params;
  params.num_hosts = tasks;
  params.radix = 4;
  params.host_bandwidth = cal.link_bandwidth;
  params.uplink_factor = 0.5;
  params.num_core = 1;
  const flowsim::FluidRateProvider provider(cal, topo::FatTree(params));
  const auto placement =
      make_placement(SchedulingPolicy::kRoundRobinNode, cluster, tasks);
  const auto scenario =
      churn_scenario(static_cast<uint64_t>(GetParam()) + 71, tasks);
  check_churn_determinism(trace, cluster, placement, provider, scenario);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelChurnScenarioFuzz,
                         ::testing::Range(0, 6));

// --- generator families x providers under churn ----------------------------

void check_scheme_churn(const graph::CommGraph& scheme,
                        const flowsim::RateProvider& provider,
                        const topo::NetworkCalibration& cal, uint64_t seed) {
  const auto trace = trace_from_scheme(scheme);
  ASSERT_NO_THROW(trace.validate());
  const auto cluster =
      topo::ClusterSpec::uniform("churnequiv", scheme.num_nodes(), 1, cal);
  const auto scenario = churn_scenario(seed + 5, scheme.num_nodes());
  check_churn_determinism(trace, cluster,
                          identity_placement(scheme.num_nodes()), provider,
                          scenario);
}

class ParallelChurnGeneratedSchemes
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(ParallelChurnGeneratedSchemes, FluidProviderDeterministicUnderChurn) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const flowsim::FluidRateProvider provider(cal);
  check_scheme_churn(scheme, provider, cal, std::get<1>(GetParam()));
}

TEST_P(ParallelChurnGeneratedSchemes,
       GigeModelProviderDeterministicUnderChurn) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const ModelRateProvider provider(models::make_model("gige"), cal);
  check_scheme_churn(scheme, provider, cal, std::get<1>(GetParam()));
}

TEST_P(ParallelChurnGeneratedSchemes,
       MyrinetModelProviderDeterministicUnderChurn) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::myrinet2000_calibration();
  const ModelRateProvider provider(models::make_model("myrinet"), cal);
  check_scheme_churn(scheme, provider, cal, std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ParallelChurnGeneratedSchemes,
    ::testing::Combine(::testing::Values("ring:nodes=8",
                                         "hotspot:nodes=9,bytes=2M",
                                         "random:nodes=10,comms=18,spread=1",
                                         "alltoall:nodes=4"),
                       ::testing::Values(1u, 2u)));

// --- fail / leave / join semantics -----------------------------------------

AppTrace one_rendezvous(double bytes) {
  AppTrace trace(2);
  trace.push(1, Event::irecv(0, bytes));
  trace.push(0, Event::isend(1, bytes));
  trace.push(0, Event::wait_all());
  trace.push(1, Event::wait_all());
  return trace;
}

struct Fixture {
  topo::ClusterSpec cluster = topo::ClusterSpec::uniform(
      "churnsem", 2, 1, topo::gigabit_ethernet_calibration());
  Placement placement = identity_placement(2);
  flowsim::FluidRateProvider provider{cluster.network()};
};

TEST(EngineChurn, FailAbortsInFlightTransfersAtTheFailureInstant) {
  Fixture f;
  const auto trace = one_rendezvous(4e7);
  const auto base = run_simulation(trace, f.cluster, f.placement, f.provider);
  ASSERT_GT(base.makespan, 0.01);

  Scenario scenario;
  scenario.churn.push_back({0.01, graph::ChurnKind::kFail, 1});
  const auto failed = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(failed.aborted_comms, 1u);
  ASSERT_EQ(failed.comms.size(), 1u);
  EXPECT_TRUE(failed.comms[0].aborted);
  // The abort happens exactly when the script fires, and both blocked tasks
  // unblock there — the replay ends early instead of deadlocking.
  EXPECT_DOUBLE_EQ(failed.comms[0].finish, 0.01);
  EXPECT_LT(failed.makespan, base.makespan);
  // Aborted records carry a partial penalty and are excluded from the mean.
  EXPECT_DOUBLE_EQ(failed.average_penalty(), 1.0);
}

TEST(EngineChurn, LeaveDrainsInFlightTransfersUntouched) {
  // kLeave marks the node down for background admission but lets every
  // in-flight and future measured transfer drain — bit-identical replay.
  Fixture f;
  const auto trace = one_rendezvous(4e7);
  const auto base =
      run_simulation(trace, f.cluster, f.placement, f.provider);
  Scenario scenario;
  scenario.churn.push_back({0.01, graph::ChurnKind::kLeave, 1});
  const auto left = run_simulation(trace, f.cluster, f.placement, f.provider,
                                   scenario);
  EXPECT_EQ(left.aborted_comms, 0u);
  expect_bit_identical(base, left);
}

TEST(EngineChurn, MeasuredJobKeepsUsingAFailedNode) {
  // Transient-fault model: failures abort what was in flight, but the
  // measured job's later transfers still use the node, so replays always
  // terminate.
  Fixture f;
  AppTrace trace(2);
  trace.push(0, Event::compute(0.05));
  trace.push(1, Event::irecv(0, 1e6));
  trace.push(0, Event::isend(1, 1e6));
  trace.push(0, Event::wait_all());
  trace.push(1, Event::wait_all());
  Scenario scenario;
  scenario.churn.push_back({0.01, graph::ChurnKind::kFail, 1});
  const auto result = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(result.aborted_comms, 0u);
  ASSERT_EQ(result.comms.size(), 1u);
  EXPECT_FALSE(result.comms[0].aborted);
  EXPECT_GT(result.makespan, 0.05);
}

// --- background cross-traffic ----------------------------------------------

TEST(EngineChurn, BackgroundFlowContendsButIsExcludedFromThePenaltyMean) {
  Fixture f;
  const auto trace = one_rendezvous(2e7);
  const auto base =
      run_simulation(trace, f.cluster, f.placement, f.provider);
  Scenario scenario;
  scenario.background.push_back({0.0, 0, 1, 2e7});
  const auto loaded = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(loaded.background_comms, 1u);
  EXPECT_EQ(loaded.background_skipped, 0u);
  EXPECT_GT(loaded.makespan, base.makespan);
  ASSERT_EQ(loaded.comms.size(), 2u);
  size_t bg = loaded.comms[0].background ? 0 : 1;
  EXPECT_TRUE(loaded.comms[bg].background);
  EXPECT_EQ(loaded.comms[bg].src_task, -1);
  EXPECT_EQ(loaded.comms[bg].dst_task, -1);
  // average_penalty reflects only the measured record, which was slowed.
  EXPECT_DOUBLE_EQ(loaded.average_penalty(),
                   loaded.comms[1 - bg].penalty);
  EXPECT_GT(loaded.average_penalty(), 1.0);
}

TEST(EngineChurn, DownNodesRefuseBackgroundAdmission) {
  Fixture f;
  const auto trace = one_rendezvous(2e7);
  const auto base =
      run_simulation(trace, f.cluster, f.placement, f.provider);
  Scenario scenario;
  scenario.down_at_start.push_back(1);
  scenario.background.push_back({0.0, 0, 1, 2e7});
  const auto gated = run_simulation(trace, f.cluster, f.placement,
                                    f.provider, scenario);
  EXPECT_EQ(gated.background_comms, 0u);
  EXPECT_EQ(gated.background_skipped, 1u);
  // The skipped flow never entered the rate structure.
  EXPECT_DOUBLE_EQ(gated.makespan, base.makespan);
}

TEST(EngineChurn, JoinReopensBackgroundAdmission) {
  Fixture f;
  const auto trace = one_rendezvous(2e7);
  Scenario scenario;
  scenario.down_at_start.push_back(1);
  scenario.churn.push_back({0.005, graph::ChurnKind::kJoin, 1});
  scenario.background.push_back({0.01, 0, 1, 2e7});
  const auto result = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(result.background_comms, 1u);
  EXPECT_EQ(result.background_skipped, 0u);
}

TEST(EngineChurn, ScriptEventsBeyondTheMakespanNeverFire) {
  Fixture f;
  const auto trace = one_rendezvous(2e7);
  const auto base =
      run_simulation(trace, f.cluster, f.placement, f.provider);
  Scenario scenario;
  scenario.background.push_back({base.makespan + 10.0, 0, 1, 2e7});
  scenario.churn.push_back(
      {base.makespan + 20.0, graph::ChurnKind::kFail, 1});
  const auto result = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(result.background_comms, 0u);
  EXPECT_EQ(result.aborted_comms, 0u);
  expect_bit_identical(base, result);
}

TEST(EngineChurn, BarrierReleaseRegroupsTheReleasingCompletionsComponent) {
  // A background flow shares both hosts with the job's transfers. With zero
  // latency, the first transfer's completion releases the barrier in the
  // same event that shrank the flow's component, and the release posts a
  // second transfer that joins it again. The one flush at the top of the
  // event loop must regroup and solve that shrunk-then-grown component
  // before the clock moves: the two flows then share host 0's link until
  // the second transfer drains, and the flow finishes alone.
  auto cal = topo::gigabit_ethernet_calibration();
  cal.latency = 0.0;
  const auto cluster = topo::ClusterSpec::uniform("barrierflush", 2, 1, cal);
  const auto placement = identity_placement(2);
  const flowsim::FluidRateProvider provider(cal);
  constexpr double kJob = 4e6;
  constexpr double kBackground = 4.0 * kJob;
  AppTrace trace(2);
  trace.push(0, Event::send(1, kJob));
  trace.push(1, Event::recv(0, kJob));
  trace.push_barrier_all();
  trace.push(0, Event::send(1, kJob));
  trace.push(1, Event::recv(0, kJob));
  trace.push(0, Event::compute(1.0));  // outlive the background flow
  Scenario scenario;
  scenario.background.push_back({0.0, 0, 1, kBackground});
  const auto result =
      expect_cross_check_clean(trace, cluster, placement, provider, scenario);
  ASSERT_EQ(result.comms.size(), 3u);
  ASSERT_TRUE(result.comms[1].background);
  // Each job transfer shares host 0's TX link with the flow at half the
  // link rate; the flow then runs alone at its single-stream rate.
  const double shared = cal.link_bandwidth / 2.0;
  const double release = kJob / shared;
  EXPECT_DOUBLE_EQ(result.comms[0].finish, release);
  EXPECT_DOUBLE_EQ(result.comms[2].start, release);
  EXPECT_DOUBLE_EQ(result.comms[2].finish, 2.0 * release);
  EXPECT_DOUBLE_EQ(
      result.comms[1].finish,
      2.0 * release + (kBackground - 2.0 * kJob) / cal.reference_bandwidth());
}

// --- release-path goldens --------------------------------------------------
//
// One replay per way a transfer leaves the active set — a kFail abort of a
// rendezvous send into a blocking recv, a kFail abort of an isend/irecv pair
// released through WaitAll, a background flow that completes next to one a
// kFail aborts, and a kLeave at the same instant as background injections.
// Every CommRecord and TaskStats field is pinned exactly (values printed
// %.17g). The determinism suites above compare modes against each other and
// cannot see a change that moves every mode the same way; these can.

struct CommGolden {
  TaskId src_task;
  TaskId dst_task;
  topo::NodeId src_node;
  topo::NodeId dst_node;
  double bytes;
  double send_post;
  double recv_post;
  double start;
  double finish;
  double penalty;
  double sender_time;
  bool background;
  bool aborted;
};

struct TaskGolden {
  double finish_time;
  double compute_seconds;
  double send_blocked_seconds;
  double recv_blocked_seconds;
  double barrier_wait_seconds;
  int sends;
  int recvs;
};

struct ReplayGolden {
  double makespan;
  size_t aborted_comms;
  size_t background_comms;
  size_t background_skipped;
  std::vector<CommGolden> comms;
  std::vector<TaskGolden> tasks;
};

/// Replay `trace` on a `nodes`-node GigE cluster (one task per node, task i
/// on node i) under `scenario`, with the cross_check oracle armed on a
/// second run, and compare every output field against `golden` exactly.
void expect_golden(const AppTrace& trace, int nodes, const Scenario& scenario,
                   const ReplayGolden& golden) {
  const auto cluster = topo::ClusterSpec::uniform(
      "golden", nodes, 1, topo::gigabit_ethernet_calibration());
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto r =
      expect_cross_check_clean(trace, cluster,
                               identity_placement(trace.num_tasks()),
                               provider, scenario);
  EXPECT_EQ(r.makespan, golden.makespan);
  EXPECT_EQ(r.aborted_comms, golden.aborted_comms);
  EXPECT_EQ(r.background_comms, golden.background_comms);
  EXPECT_EQ(r.background_skipped, golden.background_skipped);
  ASSERT_EQ(r.comms.size(), golden.comms.size());
  for (size_t i = 0; i < r.comms.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "comm record " << i);
    const CommRecord& c = r.comms[i];
    const CommGolden& g = golden.comms[i];
    EXPECT_EQ(c.src_task, g.src_task);
    EXPECT_EQ(c.dst_task, g.dst_task);
    EXPECT_EQ(c.src_node, g.src_node);
    EXPECT_EQ(c.dst_node, g.dst_node);
    EXPECT_EQ(c.bytes, g.bytes);
    EXPECT_EQ(c.send_post, g.send_post);
    EXPECT_EQ(c.recv_post, g.recv_post);
    EXPECT_EQ(c.start, g.start);
    EXPECT_EQ(c.finish, g.finish);
    EXPECT_EQ(c.penalty, g.penalty);
    EXPECT_EQ(c.sender_time, g.sender_time);
    EXPECT_EQ(c.background, g.background);
    EXPECT_EQ(c.aborted, g.aborted);
  }
  ASSERT_EQ(r.tasks.size(), golden.tasks.size());
  for (size_t t = 0; t < r.tasks.size(); ++t) {
    SCOPED_TRACE(testing::Message() << "task " << t);
    const TaskStats& s = r.tasks[t];
    const TaskGolden& g = golden.tasks[t];
    EXPECT_EQ(s.finish_time, g.finish_time);
    EXPECT_EQ(s.compute_seconds, g.compute_seconds);
    EXPECT_EQ(s.send_blocked_seconds, g.send_blocked_seconds);
    EXPECT_EQ(s.recv_blocked_seconds, g.recv_blocked_seconds);
    EXPECT_EQ(s.barrier_wait_seconds, g.barrier_wait_seconds);
    EXPECT_EQ(s.sends, g.sends);
    EXPECT_EQ(s.recvs, g.recvs);
  }
}

TEST(EngineChurnGolden, FailDuringRendezvousSendIntoBlockingRecv) {
  // The abort unblocks the sender (rendezvous) and the receiver (blocking
  // recv) with no latency; both go on to a second, undisturbed transfer.
  AppTrace trace(2);
  trace.push(0, Event::send(1, 4e7));
  trace.push(0, Event::compute(0.002));
  trace.push(0, Event::send(1, 1e6));
  trace.push(1, Event::recv(0, 4e7));
  trace.push(1, Event::recv(0, 1e6));
  Scenario scenario;
  scenario.churn.push_back({0.01, graph::ChurnKind::kFail, 1});
  const ReplayGolden golden{
      0.022711666666666668, 1, 0, 0,
      // src/dst task, src/dst node, bytes; send_post, recv_post, start,
      // finish; penalty, sender_time, background, aborted
      {{0, 1, 0, 1, 40000000,
        0, 0, 0, 0.01,
        0.023435028336855096, 0.01, false, true},
       {0, 1, 0, 1, 1000000,
        0.012, 0.01, 0.012, 0.022711666666666668,
        1.0000000000000002, 0.010666666666666668, false, false}},
      // finish, compute, send_blocked; recv_blocked, barrier_wait, sends,
      // recvs
      {{0.022666666666666668, 0.002, 0.020666666666666667,
        0, 0, 2, 0},
       {0.022711666666666668, 0, 0,
        0.022711666666666668, 0, 0, 2}}};
  expect_golden(trace, 2, scenario, golden);
}

TEST(EngineChurnGolden, FailOnIsendIrecvPairReleasedThroughWaitAll) {
  // Task 0 isends to tasks 1 and 2; the failure of node 2 aborts only the
  // second pair. Task 2 leaves WaitAll at the failure instant, task 0 stays
  // in it until the surviving transfer drains.
  AppTrace trace(3);
  trace.push(0, Event::isend(1, 4e7));
  trace.push(0, Event::isend(2, 4e7));
  trace.push(0, Event::wait_all());
  trace.push(1, Event::irecv(0, 4e7));
  trace.push(1, Event::wait_all());
  trace.push(2, Event::irecv(0, 4e7));
  trace.push(2, Event::wait_all());
  Scenario scenario;
  scenario.churn.push_back({0.01, graph::ChurnKind::kFail, 2});
  const ReplayGolden golden{
      0.43004500000000001, 1, 0, 0,
      // src/dst task, src/dst node, bytes; send_post, recv_post, start,
      // finish; penalty, sender_time, background, aborted
      {{0, 1, 0, 1, 40000000,
        0, 0, 0, 0.43004500000000001,
        1.0078116761122851, 0, false, false},
       {0, 2, 0, 2, 40000000,
        0, 0, 0, 0.01,
        0.023435028336855096, 0, false, true}},
      // finish, compute, send_blocked; recv_blocked, barrier_wait, sends,
      // recvs
      {{0.42999999999999999, 0, 0,
        0.42999999999999999, 0, 2, 0},
       {0.43004500000000001, 0, 0,
        0.43004500000000001, 0, 0, 1},
       {0.01, 0, 0,
        0.01, 0, 0, 1}}};
  expect_golden(trace, 3, scenario, golden);
}

TEST(EngineChurnGolden, BackgroundFlowsCompleteAndAbort) {
  // Flow 0->2 drains while sharing node 0 with the job; flow 3->1 shares
  // node 1 with the job until the failure of node 3 aborts it.
  AppTrace trace(2);
  trace.push(0, Event::send(1, 2e7));
  trace.push(1, Event::recv(0, 2e7));
  Scenario scenario;
  scenario.background.push_back({0.0, 0, 2, 1e6});
  scenario.background.push_back({0.001, 3, 1, 4e7});
  scenario.churn.push_back({0.05, graph::ChurnKind::kFail, 3});
  const ReplayGolden golden{
      0.23004499999999997, 1, 2, 0,
      // src/dst task, src/dst node, bytes; send_post, recv_post, start,
      // finish; penalty, sender_time, background, aborted
      {{0, 1, 0, 1, 20000000,
        0, 0, 0, 0.23004499999999997,
        1.0781085239832222, 0.22999999999999998, false, false},
       {-1, -1, 0, 2, 1000000,
        0, 0, 0, 0.016045,
        1.4978994865411546, 0, true, false},
       {-1, -1, 3, 1, 40000000,
        0.001, 0.001, 0.001, 0.050000000000000003,
        0.11483163885058997, 0, true, true}},
      // finish, compute, send_blocked; recv_blocked, barrier_wait, sends,
      // recvs
      {{0.22999999999999998, 0, 0.22999999999999998,
        0, 0, 1, 0},
       {0.23004499999999997, 0, 0,
        0.23004499999999997, 0, 0, 1}}};
  expect_golden(trace, 4, scenario, golden);
}

TEST(EngineChurnGolden, LeaveAndBackgroundFlowAtTheSameInstant) {
  // At t=0.005 node 2 leaves, then (churn precedes background at equal
  // times) a flow to node 2 is skipped and one between up nodes admitted.
  // The flow already in flight to node 2 drains: kLeave aborts nothing.
  AppTrace trace(2);
  trace.push(0, Event::send(1, 2e7));
  trace.push(1, Event::recv(0, 2e7));
  Scenario scenario;
  scenario.churn.push_back({0.005, graph::ChurnKind::kLeave, 2});
  scenario.background.push_back({0.0, 1, 2, 1e6});
  scenario.background.push_back({0.005, 0, 2, 1e6});
  scenario.background.push_back({0.005, 0, 1, 1e6});
  const ReplayGolden golden{
      0.21871166666666664, 0, 2, 1,
      // src/dst task, src/dst node, bytes; send_post, recv_post, start,
      // finish; penalty, sender_time, background, aborted
      {{0, 1, 0, 1, 20000000,
        0, 0, 0, 0.21871166666666664,
        1.024994727674631, 0.21866666666666665, false, false},
       {-1, -1, 1, 2, 1000000,
        0, 0, 0, 0.010711666666666668,
        1.0000000000000002, 0, true, false},
       {-1, -1, 0, 1, 1000000,
        0.0050000000000000001, 0.0050000000000000001, 0.0050000000000000001,
        0.021044999999999998,
        1.4978994865411543, 0, true, false}},
      // finish, compute, send_blocked; recv_blocked, barrier_wait, sends,
      // recvs
      {{0.21866666666666665, 0, 0.21866666666666665,
        0, 0, 1, 0},
       {0.21871166666666664, 0, 0,
        0.21871166666666664, 0, 0, 1}}};
  expect_golden(trace, 3, scenario, golden);
}

// --- seeded scenarios ------------------------------------------------------

TEST(EngineChurn, SeededScenarioDrawsOnlyNonzeroRates) {
  const Scenario none = seeded_scenario(0.0, 0.0, 8, 7);
  EXPECT_TRUE(none.churn.empty());
  EXPECT_TRUE(none.background.empty());
  const Scenario churn_only = seeded_scenario(40.0, 0.0, 8, 7);
  EXPECT_FALSE(churn_only.churn.empty());
  EXPECT_TRUE(churn_only.background.empty());
  const Scenario background_only = seeded_scenario(0.0, 100.0, 8, 7);
  EXPECT_TRUE(background_only.churn.empty());
  EXPECT_FALSE(background_only.background.empty());
}

TEST(EngineChurn, SeededScenarioMatchesTheGeneratorsOverOneSecond) {
  const int nodes = 16;
  const uint64_t seed = 11;
  const Scenario s = seeded_scenario(40.0, 100.0, nodes, seed);

  graph::ChurnSpec churn;
  churn.rate = 40.0;
  churn.horizon = 1.0;
  churn.nodes = nodes;
  const auto want_churn = graph::generate_churn(churn, seed);
  ASSERT_EQ(s.churn.size(), want_churn.size());
  for (size_t i = 0; i < want_churn.size(); ++i) {
    EXPECT_EQ(s.churn[i].time, want_churn[i].time) << i;
    EXPECT_EQ(s.churn[i].kind, want_churn[i].kind) << i;
    EXPECT_EQ(s.churn[i].node, want_churn[i].node) << i;
  }

  graph::BackgroundSpec background;
  background.rate = 100.0;
  background.horizon = 1.0;
  background.nodes = nodes;
  const auto want_background = graph::generate_background(background, seed);
  ASSERT_EQ(s.background.size(), want_background.size());
  for (size_t i = 0; i < want_background.size(); ++i) {
    EXPECT_EQ(s.background[i].time, want_background[i].time) << i;
    EXPECT_EQ(s.background[i].src, want_background[i].src) << i;
    EXPECT_EQ(s.background[i].dst, want_background[i].dst) << i;
    EXPECT_EQ(s.background[i].bytes, want_background[i].bytes) << i;
  }
  for (const auto& ev : s.churn) EXPECT_LT(ev.time, 1.0);
  for (const auto& flow : s.background) EXPECT_LT(flow.time, 1.0);
}

TEST(EngineChurn, SeededScenarioRejectsAnOverBudgetRate) {
  // The 1 s horizon caps each rate at graph::kMaxScriptEvents per second.
  EXPECT_THROW((void)seeded_scenario(2 * graph::kMaxScriptEvents, 0.0, 8, 1),
               Error);
  EXPECT_THROW((void)seeded_scenario(0.0, 2 * graph::kMaxScriptEvents, 8, 1),
               Error);
  EXPECT_THROW((void)seeded_scenario(40.0, 0.0, 1, 1), Error);
}

// --- validation ------------------------------------------------------------

TEST(EngineChurn, ScenarioValidationRejectsBadScripts) {
  Fixture f;
  const auto trace = one_rendezvous(1e6);
  {
    Scenario s;
    s.churn.push_back({0.1, graph::ChurnKind::kFail, 7});  // node out of range
    EXPECT_THROW((void)run_simulation(trace, f.cluster, f.placement,
                                      f.provider, s),
                 Error);
  }
  {
    Scenario s;
    s.background.push_back({0.1, 0, 0, 1e6});  // self-flow
    EXPECT_THROW((void)run_simulation(trace, f.cluster, f.placement,
                                      f.provider, s),
                 Error);
  }
  {
    Scenario s;
    s.churn.push_back({-1.0, graph::ChurnKind::kJoin, 0});  // negative time
    EXPECT_THROW((void)run_simulation(trace, f.cluster, f.placement,
                                      f.provider, s),
                 Error);
  }
  {
    Scenario s;
    s.job_of = {0};  // wrong size for a 2-task trace
    EXPECT_THROW((void)run_simulation(trace, f.cluster, f.placement,
                                      f.provider, s),
                 Error);
  }
}

TEST(EngineChurn, EmptyScenarioMatchesTheLegacyOverload) {
  Fixture f;
  const auto trace = churn_trace(99, 6);
  const auto cluster = topo::ClusterSpec::uniform(
      "churnlegacy", 3, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRoundRobinNode, cluster, 6);
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto legacy = run_simulation(trace, cluster, placement, provider);
  const auto scripted =
      run_simulation(trace, cluster, placement, provider, Scenario{});
  expect_bit_identical(legacy, scripted);
}

}  // namespace
}  // namespace bwshare::sim
