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
// background-admission rules. Runs under the TSan CI job next to
// test_engine_parallel.cpp.
#include <cstdint>
#include <tuple>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
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
                             const Scenario& scenario,
                             double barrier_cost = 0.0) {
  EngineConfig cfg;
  cfg.barrier_cost = barrier_cost;
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
  // A positive barrier cost on odd seeds overshoots in-flight predictions,
  // stacking the pre-barrier-cost flush point on top of the script events.
  const double barrier_cost = GetParam() % 2 == 0 ? 0.0 : 5e-3;
  check_churn_determinism(trace, cluster, placement, provider, scenario,
                          barrier_cost);
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

TEST(EngineChurn, BarrierCostFlushesTheReleasingCompletionsComponent) {
  // A background flow shares both hosts with the job's only transfer. With
  // zero latency, that transfer's completion releases the barrier in the
  // same event that dirtied the flow's component, so the flush before the
  // barrier cost advances the clock is what lets the flow speed up to its
  // solo rate for the whole cost interval (and check (e) of the engine —
  // no dirty component when the clock moves — guards it).
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
  trace.push(0, Event::compute(1.0));  // outlive the background flow
  Scenario scenario;
  scenario.background.push_back({0.0, 0, 1, kBackground});
  EngineConfig cfg;
  cfg.barrier_cost = 5e-3;
  const auto result = expect_cross_check_clean(trace, cluster, placement,
                                               provider, scenario, cfg);
  ASSERT_EQ(result.comms.size(), 2u);
  ASSERT_TRUE(result.comms[1].background);
  // Both flows share host 0's TX link at half the link rate each until the
  // job transfer drains; the flow then runs alone at its single-stream rate.
  const double shared = cal.link_bandwidth / 2.0;
  const double release = kJob / shared;
  EXPECT_DOUBLE_EQ(result.comms[0].finish, release);
  EXPECT_DOUBLE_EQ(result.comms[1].finish,
                   release + (kBackground - kJob) / cal.reference_bandwidth());
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
