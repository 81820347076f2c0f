// Steady-state allocation freedom of the incremental event loop
// (docs/PERFORMANCE.md "Memory layout").
//
// The engine's warm replay must never call the global allocator: transfer
// slots, components, match queues, staging buffers and the per-thread solve
// scratch (graph + util::Arena) are all reused storage. The test measures it
// the way the bench's alloc_per_event column does — the allocation-count
// delta between an R-round replay and a 1-round twin of the same schedule,
// both run after a warm-up replay so thread-local scratch is built. Setup
// costs (engine state, reserves) are identical for both and cancel; any
// remaining delta is a per-event allocation on the steady path, and the
// assertion is exact: zero. Run with and without a zero-length compute after
// every barrier, so the release path that grows the wake sweep's drain
// (arrive_barrier -> same-instant wake-ups re-queued by the sweep) is held
// to the same standard.
#include <cstdint>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/alloc_counter.hpp"

namespace bwshare::sim {
namespace {

class EngineAllocTest : public ::testing::TestWithParam<bool> {};

TEST_P(EngineAllocTest, WarmReplayMakesZeroSteadyStateAllocations) {
  constexpr int kNodes = 32;
  constexpr int kRounds = 6;
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto cluster = topo::ClusterSpec::uniform("alloc", kNodes, 1, cal);
  const auto placement = make_placement(SchedulingPolicy::kRoundRobinNode,
                                        cluster, kNodes);
  const flowsim::FluidRateProvider provider(cal);
  const Scenario scenario;
  const EngineConfig cfg;
  const bool settle = GetParam();

  const auto trace1 = matching_trace(kNodes, 1, /*seed=*/7, 4e6, settle);
  const auto trace = matching_trace(kNodes, kRounds, /*seed=*/7, 4e6, settle);

  const auto count_replay = [&](const AppTrace& t, int rounds) {
    const uint64_t before = util::alloc_count();
    const SimResult result =
        run_simulation(t, cluster, placement, provider, scenario, cfg);
    const uint64_t allocs = util::alloc_count() - before;
    EXPECT_EQ(result.comms.size(),
              static_cast<size_t>(kNodes / 2) * static_cast<size_t>(rounds));
    return allocs;
  };

  // Warm-up: builds the thread-local solve scratch and arena.
  (void)run_simulation(trace1, cluster, placement, provider, scenario, cfg);

  const uint64_t one_round = count_replay(trace1, 1);
  const uint64_t many_rounds = count_replay(trace, kRounds);
  EXPECT_EQ(many_rounds, one_round)
      << "rounds 2.." << kRounds << " of a warm replay allocated "
      << (many_rounds - one_round) << " times; the steady-state event loop "
      << "must not touch the global allocator";
}

INSTANTIATE_TEST_SUITE_P(AfterBarrier, EngineAllocTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "ZeroLengthCompute" : "Nothing";
                         });

}  // namespace
}  // namespace bwshare::sim
