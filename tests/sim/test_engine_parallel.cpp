// Parallel vs serial component solving (sim::SolveMode): a replay under
// SolveMode::kParallel must be *bit-identical* to kSerial at any thread
// count — the per-component compute phases are read-only and disjoint, and
// the commit phase is sequential in component-id order, so no arithmetic
// may depend on scheduling. Exercised over the shared churn fuzz (heavy
// same-time batching via barriers and fan-ins), every generator family
// under the fluid, gige-model and myrinet-model providers, fat-tree
// coupling, and EngineConfig::cross_check (whose per-flush oracle re-solves
// every component, pool-solved ones included, serially on the calling
// thread and throws on any bit of divergence). This suite is the TSan CI
// target for the engine: any data race between concurrent provider solves
// surfaces here.
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
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace bwshare::sim {
namespace {

SimResult run_solve(const AppTrace& trace, const topo::ClusterSpec& cluster,
                    const Placement& placement,
                    const flowsim::RateProvider& provider, SolveMode solve,
                    util::ThreadPool* pool, double barrier_cost = 0.0) {
  EngineConfig cfg;
  cfg.solve = solve;
  cfg.solve_pool = pool;
  cfg.barrier_cost = barrier_cost;
  return run_simulation(trace, cluster, placement, provider, cfg);
}

/// The determinism contract, checked as the ISSUE states it: serial once,
/// then parallel on injected pools of 1, 2 and 8 workers — every replay
/// bit-identical — then a parallel cross_check replay, whose oracle
/// re-solves each component serially and throws on any divergence in rates,
/// event order, wake order or queue keys.
void check_parallel_matches_serial(const AppTrace& trace,
                                   const topo::ClusterSpec& cluster,
                                   const Placement& placement,
                                   const flowsim::RateProvider& provider,
                                   double barrier_cost = 0.0) {
  const auto serial =
      run_solve(trace, cluster, placement, provider, SolveMode::kSerial,
                nullptr, barrier_cost);
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    const auto parallel =
        run_solve(trace, cluster, placement, provider, SolveMode::kParallel,
                  &pool, barrier_cost);
    expect_bit_identical(serial, parallel);
  }
  util::ThreadPool pool(2);
  EngineConfig cfg;
  cfg.barrier_cost = barrier_cost;
  cfg.solve = SolveMode::kParallel;
  cfg.solve_pool = &pool;
  expect_bit_identical(serial,
                       expect_cross_check_clean(trace, cluster, placement,
                                                provider, Scenario{}, cfg));
}

// --- staggered churn fuzz --------------------------------------------------

class ParallelChurnFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelChurnFuzz, ParallelSolveIsBitIdenticalToSerial) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 500009 + 13);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace = churn_trace(static_cast<uint64_t>(GetParam()), tasks);
  ASSERT_NO_THROW(trace.validate());
  // A positive barrier cost on odd seeds overshoots in-flight predictions,
  // exercising the pre-barrier-cost flush point.
  const double barrier_cost = GetParam() % 2 == 0 ? 0.0 : 5e-3;
  const auto cluster = topo::ClusterSpec::uniform(
      "parfuzz", (tasks + 1) / 2, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const flowsim::FluidRateProvider provider(cluster.network());
  check_parallel_matches_serial(trace, cluster, placement, provider,
                                barrier_cost);
}

TEST_P(ParallelChurnFuzz, ParallelSolveMatchesSerialUnderFatTreeCoupling) {
  // Oversubscribed inner links merge endpoint-disjoint transfers into one
  // component — the batch a flush fans out then mixes one big coupled
  // component with small independent ones (the worst case for balancing,
  // and for any unsoundness in the disjointness argument).
  const int tasks = 8;
  const auto trace =
      churn_trace(static_cast<uint64_t>(GetParam()) + 900, tasks);
  ASSERT_NO_THROW(trace.validate());
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto cluster = topo::ClusterSpec::uniform("partree", tasks, 1, cal);
  topo::FatTree::Params params;
  params.num_hosts = tasks;
  params.radix = 4;
  params.host_bandwidth = cal.link_bandwidth;
  params.uplink_factor = 0.5;
  params.num_core = 1;
  const flowsim::FluidRateProvider provider(cal, topo::FatTree(params));
  const auto placement =
      make_placement(SchedulingPolicy::kRoundRobinNode, cluster, tasks);
  check_parallel_matches_serial(trace, cluster, placement, provider);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelChurnFuzz, ::testing::Range(0, 8));

// --- generator families x providers ----------------------------------------

// trace_from_scheme / identity_placement live in engine_fuzz_util.hpp,
// shared with the churn-scenario suite.

void check_scheme_parallel(const graph::CommGraph& scheme,
                           const flowsim::RateProvider& provider,
                           const topo::NetworkCalibration& cal) {
  const auto trace = trace_from_scheme(scheme);
  ASSERT_NO_THROW(trace.validate());
  const auto cluster =
      topo::ClusterSpec::uniform("parequiv", scheme.num_nodes(), 1, cal);
  check_parallel_matches_serial(trace, cluster,
                                identity_placement(scheme.num_nodes()),
                                provider);
}

class ParallelGeneratedSchemes
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(ParallelGeneratedSchemes, FluidProviderMatchesSerial) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const flowsim::FluidRateProvider provider(cal);
  check_scheme_parallel(scheme, provider, cal);
}

TEST_P(ParallelGeneratedSchemes, GigeModelProviderMatchesSerial) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const ModelRateProvider provider(models::make_model("gige"), cal);
  check_scheme_parallel(scheme, provider, cal);
}

TEST_P(ParallelGeneratedSchemes, MyrinetModelProviderMatchesSerial) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::myrinet2000_calibration();
  const ModelRateProvider provider(models::make_model("myrinet"), cal);
  check_scheme_parallel(scheme, provider, cal);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ParallelGeneratedSchemes,
    ::testing::Combine(::testing::Values("ring:nodes=8",
                                         "hotspot:nodes=9,bytes=2M",
                                         "random:nodes=10,comms=18,spread=1",
                                         "alltoall:nodes=4"),
                       ::testing::Values(1u, 2u)));

// --- pool plumbing ---------------------------------------------------------

TEST(ParallelSolvePool, SharedInjectedPoolServesConsecutiveReplays) {
  // One process-wide pool across many simulations is the intended sweep
  // setup; each replay's flushes scope their tasks with a TaskGroup, so
  // consecutive (or interleaved) engines never wait on each other's work.
  const auto trace = churn_trace(4242, 7);
  const auto cluster = topo::ClusterSpec::uniform(
      "parpool", 4, 2, topo::myrinet2000_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRoundRobinNode, cluster, 7);
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto serial = run_solve(trace, cluster, placement, provider,
                                SolveMode::kSerial, nullptr);
  util::ThreadPool pool(3);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto parallel = run_solve(trace, cluster, placement, provider,
                                    SolveMode::kParallel, &pool);
    expect_bit_identical(serial, parallel);
  }
}

TEST(ParallelSolvePool, LazyPrivatePoolHonorsSolveThreads) {
  // Without an injected pool the engine creates its own, sized by
  // solve_threads — the standalone-replay convenience path.
  const auto trace = churn_trace(7, 6);
  const auto cluster = topo::ClusterSpec::uniform(
      "parlazy", 3, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRoundRobinNode, cluster, 6);
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto serial = run_solve(trace, cluster, placement, provider,
                                SolveMode::kSerial, nullptr);
  EngineConfig cfg;
  cfg.solve = SolveMode::kParallel;
  cfg.solve_threads = 2;
  const auto parallel =
      run_simulation(trace, cluster, placement, provider, cfg);
  expect_bit_identical(serial, parallel);
}

}  // namespace
}  // namespace bwshare::sim
