// The cross_check oracle over the incremental component-scoped rate refresh
// (EngineConfig::cross_check, docs/PERFORMANCE.md "Invariants"): on
// randomized schedules from every graph::generator family, with and without
// fat-tree inner-link coupling, a replay with the oracle armed must not
// throw and must be bit-identical to the plain replay. Plus a negative test
// proving the per-component fresh re-solve check is live, and the provider
// locality contract the engine's component solves rely on.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "topo/fattree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {
namespace {

/// Plain vs cross_check replay of one scheme under one provider.
void check_scheme(const graph::CommGraph& scheme,
                  const flowsim::RateProvider& provider,
                  const topo::NetworkCalibration& cal) {
  const auto trace = trace_from_scheme(scheme);
  ASSERT_NO_THROW(trace.validate());
  const auto cluster =
      topo::ClusterSpec::uniform("equiv", scheme.num_nodes(), 1, cal);
  expect_cross_check_clean(trace, cluster,
                           identity_placement(scheme.num_nodes()), provider);
}

topo::FatTree oversubscribed_tree(int hosts,
                                  const topo::NetworkCalibration& cal) {
  topo::FatTree::Params params;
  params.num_hosts = hosts;
  params.radix = 4;
  params.host_bandwidth = cal.link_bandwidth;
  params.uplink_factor = 0.5;  // 2:1 oversubscription per edge uplink
  params.num_core = 1;
  return topo::FatTree(params);
}

class GeneratedSchemes
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(GeneratedSchemes, FluidProviderMatchesFullRefresh) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const flowsim::FluidRateProvider provider(cal);
  check_scheme(scheme, provider, cal);
}

TEST_P(GeneratedSchemes, GigeModelProviderMatchesFullRefresh) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const ModelRateProvider provider(models::make_model("gige"), cal);
  check_scheme(scheme, provider, cal);
}

TEST_P(GeneratedSchemes, MyrinetModelProviderMatchesFullRefresh) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::myrinet2000_calibration();
  const ModelRateProvider provider(models::make_model("myrinet"), cal);
  check_scheme(scheme, provider, cal);
}

TEST_P(GeneratedSchemes, FatTreeCoupledFluidMatchesFullRefresh) {
  // An oversubscribed two-level tree: inner links constrain and *couple*
  // conflict components that share no endpoint. The engine must merge them
  // via RateProvider::coupling_keys for the restricted solve to stay exact.
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const flowsim::FluidRateProvider provider(
      cal, oversubscribed_tree(scheme.num_nodes(), cal));
  check_scheme(scheme, provider, cal);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, GeneratedSchemes,
    ::testing::Combine(::testing::Values("ring:nodes=8",
                                         "hotspot:nodes=9,bytes=2M",
                                         "random:nodes=10,comms=18,spread=1",
                                         "alltoall:nodes=4"),
                       ::testing::Values(1u, 2u, 3u)));

// Staggered schedules: random compute bursts, eager and rendezvous sizes,
// non-blocking patterns and multi-core placements (intra-node comms share
// the per-node shm engine — a coupling the conflict graph alone misses).
class StaggeredFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StaggeredFuzz, BothModesAgreeOnRandomTraces) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7777777 + 5);
  const int tasks = 4 + static_cast<int>(rng.below(5));
  AppTrace trace(tasks);
  const int rounds = 2 + static_cast<int>(rng.below(3));
  for (int round = 0; round < rounds; ++round) {
    for (TaskId src = 0; src < tasks; ++src) {
      if (rng.uniform() < 0.35) continue;
      TaskId dst = static_cast<TaskId>(rng.below(static_cast<uint64_t>(tasks)));
      if (dst == src) dst = (dst + 1) % tasks;
      const double bytes = rng.uniform() < 0.3 ? 1e3 : rng.uniform(2e5, 6e6);
      trace.push(dst, Event::irecv(src, bytes));
      if (rng.uniform() < 0.5) {
        trace.push(src, Event::isend(dst, bytes));
        trace.push(src, Event::wait_all());
      } else {
        trace.push(src, Event::send(dst, bytes));
      }
    }
    for (TaskId t = 0; t < tasks; ++t) {
      if (rng.uniform() < 0.5)
        trace.push(t, Event::compute(rng.uniform(0.0, 0.02)));
      trace.push(t, Event::wait_all());
    }
    if (rng.uniform() < 0.4) trace.push_barrier_all();
  }
  ASSERT_NO_THROW(trace.validate());

  const auto cluster = topo::ClusterSpec::uniform(
      "fuzz", (tasks + 1) / 2, 2, topo::myrinet2000_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const flowsim::FluidRateProvider provider(cluster.network());
  expect_cross_check_clean(trace, cluster, placement, provider);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaggeredFuzz, ::testing::Range(0, 12));

// --- the cross_check oracle is live --------------------------------------

/// Breaks the RateProvider purity contract on purpose: every call scales the
/// fluid rates by a factor that grows with a call counter, so no two solves
/// of the same component agree bitwise. Rates stay positive and close to the
/// fluid ones, so a plain replay runs to completion.
class DriftingProvider final : public flowsim::RateProvider {
 public:
  explicit DriftingProvider(const topo::NetworkCalibration& cal)
      : inner_(cal) {}
  [[nodiscard]] std::vector<double> rates(
      const graph::CommGraph& active) const override {
    auto out = inner_.rates(active);
    const double drift =
        1.0 + 1e-12 * static_cast<double>(calls_.fetch_add(1) + 1);
    for (double& r : out) r *= drift;
    return out;
  }

 private:
  flowsim::FluidRateProvider inner_;
  mutable std::atomic<uint64_t> calls_{0};
};

TEST(CrossCheck, FreshReSolveCatchesAnImpureProvider) {
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto scheme = graph::generate_scheme(
      graph::parse_generator_spec("hotspot:nodes=9,bytes=2M"), 1);
  const auto trace = trace_from_scheme(scheme);
  const auto cluster =
      topo::ClusterSpec::uniform("drift", scheme.num_nodes(), 1, cal);
  const auto placement = identity_placement(scheme.num_nodes());
  const DriftingProvider provider(cal);

  const auto plain = run_simulation(trace, cluster, placement, provider);
  EXPECT_EQ(plain.comms.size(), static_cast<size_t>(scheme.size()));

  EngineConfig cfg;
  cfg.cross_check = true;
  try {
    (void)run_simulation(trace, cluster, placement, provider, cfg);
    FAIL() << "cross_check accepted rates that change on every solve";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "committed rate diverged from a fresh re-solve: component"),
              std::string::npos)
        << e.what();
  }
}

// --- provider locality: closed sets solve alone ----------------------------

/// The engine's component grouping, recomputed from scratch: comms sharing
/// an endpoint node or a provider coupling key are joined (transitively).
/// Returns each closed set in ascending comm id, ordered by smallest member.
std::vector<std::vector<graph::CommId>> closed_sets(
    const graph::CommGraph& g, const flowsim::RateProvider& provider) {
  const int n = g.size();
  std::vector<int> parent(static_cast<size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x)
      x = parent[static_cast<size_t>(x)];
    return x;
  };
  const auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
  };
  for (graph::CommId i = 0; i < n; ++i) {
    const auto& ci = g.comm(i);
    const auto keys_i = provider.coupling_keys(ci.src, ci.dst);
    for (graph::CommId j = 0; j < i; ++j) {
      const auto& cj = g.comm(j);
      bool coupled = ci.src == cj.src || ci.src == cj.dst ||
                     ci.dst == cj.src || ci.dst == cj.dst;
      for (const int k : provider.coupling_keys(cj.src, cj.dst))
        coupled = coupled ||
                  std::find(keys_i.begin(), keys_i.end(), k) != keys_i.end();
      if (coupled) unite(i, j);
    }
  }
  std::vector<std::vector<graph::CommId>> sets;
  std::vector<int> set_of(static_cast<size_t>(n), -1);
  for (graph::CommId i = 0; i < n; ++i) {
    int& s = set_of[static_cast<size_t>(find(i))];
    if (s == -1) {
      s = static_cast<int>(sets.size());
      sets.emplace_back();
    }
    sets[static_cast<size_t>(s)].push_back(i);
  }
  return sets;
}

/// Solving each closed set's induced graph alone must reproduce the full
/// solve's entries for its members (1e-9 relative — the tolerance of
/// cross_check's whole-set comparison).
void expect_closed_sets_solve_alone(const graph::CommGraph& g,
                                    const flowsim::RateProvider& provider) {
  const auto all = provider.rates(g);
  for (const auto& set : closed_sets(g, provider)) {
    const auto part = provider.rates(graph::induced_subgraph(g, set));
    ASSERT_EQ(part.size(), set.size());
    for (size_t k = 0; k < set.size(); ++k) {
      const double full = all[static_cast<size_t>(set[k])];
      EXPECT_LE(std::abs(part[k] - full),
                1e-9 * std::max(std::abs(part[k]), std::abs(full)))
          << "comm " << set[k];
    }
  }
}

TEST(RateProviderSubset, ModelProviderInducedSolveMatchesProjection) {
  // Two disjoint fans: each is endpoint-closed, so solving either alone
  // must reproduce the full solve's rates exactly.
  graph::CommGraph g;
  g.add("a", 0, 1, 4e6);
  g.add("b", 0, 2, 4e6);
  g.add("c", 5, 6, 4e6);
  g.add("d", 5, 7, 4e6);
  const auto cal = topo::gigabit_ethernet_calibration();
  const ModelRateProvider provider(models::make_model("gige"), cal);
  const auto all = provider.rates(g);
  const std::vector<graph::CommId> left{0, 1};
  const std::vector<graph::CommId> right{2, 3};
  const auto left_rates = provider.rates(graph::induced_subgraph(g, left));
  const auto right_rates = provider.rates(graph::induced_subgraph(g, right));
  ASSERT_EQ(left_rates.size(), 2u);
  ASSERT_EQ(right_rates.size(), 2u);
  EXPECT_DOUBLE_EQ(left_rates[0], all[0]);
  EXPECT_DOUBLE_EQ(left_rates[1], all[1]);
  EXPECT_DOUBLE_EQ(right_rates[0], all[2]);
  EXPECT_DOUBLE_EQ(right_rates[1], all[3]);
}

TEST(RateProviderSubset, NonClosedSubsetsAreExpandedToClosure) {
  // {a} is not endpoint-closed (b shares its source 0); its closure {a, b}
  // is, and solving that alone reproduces the full solve. c is a closed
  // set of its own.
  graph::CommGraph g;
  g.add("a", 0, 1, 4e6);
  g.add("b", 0, 2, 4e6);
  g.add("c", 5, 6, 4e6);
  const auto cal = topo::gigabit_ethernet_calibration();
  const std::vector<graph::CommId> closure{0, 1};
  graph::CommGraph solo;
  solo.add("a", 0, 1, 4e6);

  const flowsim::FluidRateProvider fluid(cal);
  EXPECT_EQ(closed_sets(g, fluid),
            (std::vector<std::vector<graph::CommId>>{{0, 1}, {2}}));
  EXPECT_DOUBLE_EQ(fluid.rates(graph::induced_subgraph(g, closure))[0],
                   fluid.rates(g)[0]);
  // Sanity: the shared TX link halves the rate, so an isolated solve of
  // the non-closed {a} returns something strictly larger.
  EXPECT_LT(fluid.rates(g)[0], fluid.rates(solo)[0]);

  const ModelRateProvider gige(models::make_model("gige"), cal);
  EXPECT_DOUBLE_EQ(gige.rates(graph::induced_subgraph(g, closure))[0],
                   gige.rates(g)[0]);
  EXPECT_LT(gige.rates(g)[0], gige.rates(solo)[0]);
}

TEST(RateProviderSubset, FluidMergesTopologyCoupledComponents) {
  // Hosts 0->4 and 1->5 share no endpoint but cross the same oversubscribed
  // edge-to-core uplink: their coupling keys put them in one closed set,
  // which must be solved together, never one flow in isolation. 2->3 stays
  // under its edge switch and is a closed set of its own.
  const auto cal = topo::gigabit_ethernet_calibration();
  const flowsim::FluidRateProvider provider(cal, oversubscribed_tree(8, cal));

  graph::CommGraph g;
  g.add("a", 0, 4, 4e6);
  g.add("b", 1, 5, 4e6);
  g.add("c", 2, 3, 4e6);
  EXPECT_EQ(closed_sets(g, provider),
            (std::vector<std::vector<graph::CommId>>{{0, 1}, {2}}));
  const auto all = provider.rates(g);
  const std::vector<graph::CommId> coupled{0, 1};
  const auto together = provider.rates(graph::induced_subgraph(g, coupled));
  ASSERT_EQ(together.size(), 2u);
  EXPECT_DOUBLE_EQ(together[0], all[0]);
  EXPECT_DOUBLE_EQ(together[1], all[1]);
  // Sanity: the shared uplink really constrains (each flow gets half of the
  // 0.5x-capacity trunk, i.e. less than its solo single-stream rate).
  graph::CommGraph solo;
  solo.add("a", 0, 4, 4e6);
  EXPECT_LT(all[0], provider.rates(solo)[0]);
}

TEST(RateProviderSubset, ClosedSetsSolveAloneOnRandomGraphs) {
  const auto cal = topo::gigabit_ethernet_calibration();
  const flowsim::FluidRateProvider flat(cal);
  const flowsim::FluidRateProvider tree(cal, oversubscribed_tree(16, cal));
  const ModelRateProvider gige(models::make_model("gige"), cal);
  Rng rng(2024);
  for (int iter = 0; iter < 40; ++iter) {
    graph::CommGraph g;
    const int comms = 2 + static_cast<int>(rng.below(14));
    for (int i = 0; i < comms; ++i) {
      const int src = static_cast<int>(rng.below(16));
      int dst = static_cast<int>(rng.below(16));
      if (dst == src) dst = (src + 1) % 16;
      g.add(src, dst, 1e6 + static_cast<double>(rng.below(8000000)));
    }
    SCOPED_TRACE(iter);
    expect_closed_sets_solve_alone(g, flat);
    expect_closed_sets_solve_alone(g, tree);
    expect_closed_sets_solve_alone(g, gige);
  }
}

TEST(RateProviderSubset, FluidCouplingKeysListInnerLinksOnly) {
  const auto cal = topo::gigabit_ethernet_calibration();
  topo::FatTree::Params params;
  params.num_hosts = 8;
  params.radix = 4;
  params.host_bandwidth = cal.link_bandwidth;
  params.uplink_factor = 0.5;
  params.num_core = 1;
  const topo::FatTree tree(params);
  const flowsim::FluidRateProvider coupled(cal, tree);
  // Cross-edge route: host uplink + edge-up + edge-down + host downlink;
  // only the two inner hops are coupling keys.
  EXPECT_EQ(coupled.coupling_keys(0, 4).size(), 2u);
  // Same-edge route never leaves the edge switch: no inner links.
  EXPECT_TRUE(coupled.coupling_keys(0, 1).empty());
  // Intra-node traffic bypasses the NIC entirely.
  EXPECT_TRUE(coupled.coupling_keys(3, 3).empty());
  // Without a topology there is nothing beyond the endpoint hosts.
  const flowsim::FluidRateProvider flat(cal);
  EXPECT_TRUE(flat.coupling_keys(0, 4).empty());
}

TEST(RateProviderSubset, BaseDefaultProjectsFullSolve) {
  // A provider that only implements the one-argument rates() gets the safe
  // full-solve-and-project default for the restricted entry point.
  class ConstantProvider final : public flowsim::RateProvider {
   public:
    using flowsim::RateProvider::rates;  // keep the restricted overload
    [[nodiscard]] std::vector<double> rates(
        const graph::CommGraph& active) const override {
      std::vector<double> out;
      for (graph::CommId i = 0; i < active.size(); ++i)
        out.push_back(100.0 + static_cast<double>(i));
      return out;
    }
  };
  graph::CommGraph g;
  g.add("a", 0, 1, 1.0);
  g.add("b", 2, 3, 1.0);
  g.add("c", 4, 5, 1.0);
  const ConstantProvider provider;
  const std::vector<graph::CommId> subset{2, 0};
  const auto rates = provider.rates(g, subset);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 102.0);
  EXPECT_DOUBLE_EQ(rates[1], 100.0);
}

}  // namespace
}  // namespace bwshare::sim
