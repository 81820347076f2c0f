// The fluid substrate must reproduce the paper's fig-2 measured penalties
// (it replaces the physical clusters — see DESIGN.md §1).
#include "flowsim/fluid_network.hpp"

#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "graph/schemes.hpp"
#include "topo/fattree.hpp"
#include "util/alloc_counter.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::flowsim {
namespace {

using graph::schemes::fig2_scheme;
using topo::gigabit_ethernet_calibration;
using topo::infiniband_calibration;
using topo::myrinet2000_calibration;

/// Reference construction of the substrate's max-min problem, written for
/// clarity with ordered maps: one resource per host TX link, per host RX
/// link, per duplex-saturated host bus, per shm engine (each group by
/// ascending node id), then one per fat-tree inner link (ascending link id),
/// members in comm order. FluidRateProvider::rates_into builds the same
/// problem in an arena; the two must agree bit for bit.
AllocationProblem reference_problem(const graph::CommGraph& active,
                                    const topo::NetworkCalibration& cal,
                                    const std::optional<topo::FatTree>& tree) {
  const int n = active.size();
  const double link = cal.link_bandwidth;
  AllocationProblem problem;
  problem.num_flows = n;
  problem.weights.assign(static_cast<size_t>(n), 1.0);
  problem.caps.assign(static_cast<size_t>(n), 0.0);

  std::map<topo::NodeId, std::vector<FlowIndex>> tx_at;
  std::map<topo::NodeId, std::vector<FlowIndex>> rx_at;
  std::map<topo::NodeId, std::vector<FlowIndex>> shm_at;
  for (graph::CommId i = 0; i < n; ++i) {
    const auto& c = active.comm(i);
    if (active.is_intra_node(i)) {
      shm_at[c.src].push_back(i);
      problem.caps[static_cast<size_t>(i)] = cal.shm_bandwidth;
      continue;
    }
    tx_at[c.src].push_back(i);
    rx_at[c.dst].push_back(i);
    problem.caps[static_cast<size_t>(i)] = link * cal.single_stream_efficiency;
  }
  // Heavy bidirectional load (>= 4 flows, both directions) saturates the
  // host bus; receive flows there get the RX bus weight.
  const auto saturated = [&](topo::NodeId node) {
    const auto tx = tx_at.find(node);
    const auto rx = rx_at.find(node);
    if (tx == tx_at.end() || rx == rx_at.end()) return false;
    return tx->second.size() + rx->second.size() >= 4;
  };
  for (const auto& [node, rx] : rx_at) {
    if (!saturated(node)) continue;
    for (const FlowIndex f : rx)
      problem.weights[static_cast<size_t>(f)] = cal.rx_bus_weight;
  }
  for (const auto& [node, members] : tx_at)
    problem.resources.push_back(Resource{link, members});
  for (const auto& [node, members] : rx_at)
    problem.resources.push_back(Resource{link, members});
  for (const auto& [node, tx] : tx_at) {
    if (!saturated(node)) continue;
    Resource bus{link * cal.host_duplex_factor, tx};
    const auto& rx = rx_at.at(node);
    bus.members.insert(bus.members.end(), rx.begin(), rx.end());
    problem.resources.push_back(std::move(bus));
  }
  for (const auto& [node, members] : shm_at)
    problem.resources.push_back(Resource{cal.shm_bandwidth, members});
  if (tree) {
    std::map<topo::LinkId, std::vector<FlowIndex>> on_link;
    for (graph::CommId i = 0; i < n; ++i) {
      if (active.is_intra_node(i)) continue;
      const auto& c = active.comm(i);
      for (const topo::LinkId l : tree->route(c.src, c.dst)) {
        if (l == tree->host_uplink(c.src) || l == tree->host_downlink(c.dst))
          continue;
        on_link[l].push_back(i);
      }
    }
    for (const auto& [l, members] : on_link)
      problem.resources.push_back(Resource{tree->link(l).capacity, members});
  }
  return problem;
}

std::vector<double> penalties(int scheme, const topo::NetworkCalibration& cal) {
  return measure_penalties(fig2_scheme(scheme), cal);
}

// Fig-2 reports penalties in the fully saturated regime (all 20 MB streams
// concurrently active).
std::vector<double> sat(int scheme, const topo::NetworkCalibration& cal) {
  return saturated_penalties(fig2_scheme(scheme), cal);
}

TEST(FluidSubstrate, SingleCommHasNoPenalty) {
  for (const auto& cal :
       {gigabit_ethernet_calibration(), myrinet2000_calibration(),
        infiniband_calibration()}) {
    const auto p = penalties(1, cal);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_NEAR(p[0], 1.0, 0.01);
  }
}

TEST(FluidSubstrate, Fig2GigeColumn) {
  // Paper: S2 -> 1.5, 1.5; S3 -> 2.25 x3; S4 -> ~2.15 x3 and d = 1.15.
  const auto cal = gigabit_ethernet_calibration();
  for (double p : penalties(2, cal)) EXPECT_NEAR(p, 1.5, 0.03);
  for (double p : penalties(3, cal)) EXPECT_NEAR(p, 2.25, 0.04);
  const auto s4 = penalties(4, cal);
  EXPECT_NEAR(s4[0], 2.25, 0.1);  // paper 2.15
  EXPECT_NEAR(s4[3], 1.15, 0.05);  // d: fluid gives 1.125
}

TEST(FluidSubstrate, Fig2MyrinetColumn) {
  // Paper: S2 -> 1.9; S3 -> 2.8; S4 -> 2.8 x3, d = 1.45;
  // S5 -> a,b,c ~4.2-4.4, e ~2.5.
  const auto cal = myrinet2000_calibration();
  for (double p : penalties(2, cal)) EXPECT_NEAR(p, 1.9, 0.03);
  for (double p : penalties(3, cal)) EXPECT_NEAR(p, 2.8, 0.1);
  const auto s4 = penalties(4, cal);
  EXPECT_NEAR(s4[0], 2.8, 0.1);
  EXPECT_NEAR(s4[3], 1.45, 0.05);
  const auto s5 = sat(5, cal);
  EXPECT_NEAR(s5[0], 4.4, 0.15);  // a
  EXPECT_NEAR(s5[1], 4.4, 0.15);  // b (paper 4.2)
  EXPECT_NEAR(s5[4], 2.5, 0.1);   // e
}

TEST(FluidSubstrate, Fig2InfinibandColumn) {
  // Paper: S2 -> 1.725; S3 -> 2.61; S5 -> 3.66 x3 and e = 2.035.
  const auto cal = infiniband_calibration();
  for (double p : penalties(2, cal)) EXPECT_NEAR(p, 1.725, 0.03);
  for (double p : penalties(3, cal)) EXPECT_NEAR(p, 2.61, 0.05);
  const auto s5 = sat(5, cal);
  EXPECT_NEAR(s5[0], 3.663, 0.08);
  EXPECT_NEAR(s5[4], 2.035, 0.06);
}

TEST(FluidSubstrate, Fig2SharingOrderAcrossNetworks) {
  // Fig 2's headline observation: GigE shares best, Myrinet worst.
  for (int scheme = 2; scheme <= 3; ++scheme) {
    const double gige = penalties(scheme, gigabit_ethernet_calibration())[0];
    const double ib = penalties(scheme, infiniband_calibration())[0];
    const double myri = penalties(scheme, myrinet2000_calibration())[0];
    EXPECT_LT(gige, ib);
    EXPECT_LT(ib, myri);
  }
}

TEST(FluidSubstrate, Fig2Scheme6WeakConflict) {
  // f:6->3 only shares node 3 with c; its penalty stays close to 1.
  for (const auto& cal :
       {gigabit_ethernet_calibration(), myrinet2000_calibration(),
        infiniband_calibration()}) {
    const auto p = penalties(6, cal);
    EXPECT_LT(p[5], 1.5) << to_string(cal.tech);
    EXPECT_GT(p[0], 2.5) << to_string(cal.tech);
  }
}

TEST(FluidSubstrate, RingIsConflictFree) {
  // One task per node, each sends to its successor: full-duplex links mean
  // no sharing, so every comm runs at reference speed... except the duplex
  // bus, which charges hosts that both send and receive.
  const auto cal = myrinet2000_calibration();
  const auto g = graph::schemes::ring(6, 4e6);
  const auto p = measure_penalties(g, cal);
  for (double v : p) {
    EXPECT_GE(v, 0.99);
    // duplex factor 1.03 with rx weight: modest slowdown allowed
    EXPECT_LT(v, 2.0);
  }
}

TEST(FluidSubstrate, IntraNodeUsesSharedMemory) {
  graph::CommGraph g;
  g.add("shm", 0, 0, 8e6);
  g.add("net", 0, 1, 8e6);
  const auto cal = gigabit_ethernet_calibration();
  const auto times = measure_scheme_fluid(g, cal);
  // Shared-memory copy is much faster than the network transfer.
  EXPECT_LT(times[0], times[1] / 5.0);
}

TEST(FluidSubstrate, TimesScaleLinearlyWithSize) {
  const auto cal = infiniband_calibration();
  const auto t1 = measure_scheme_fluid(graph::schemes::outgoing_fan(3, 2e6), cal);
  const auto t2 = measure_scheme_fluid(graph::schemes::outgoing_fan(3, 4e6), cal);
  for (size_t i = 0; i < t1.size(); ++i)
    EXPECT_NEAR(t2[i] / t1[i], 2.0, 0.01);
}

TEST(FluidSubstrate, BuildProblemShape) {
  const auto cal = gigabit_ethernet_calibration();
  const auto g = fig2_scheme(5);
  const auto problem = reference_problem(g, cal, std::nullopt);
  EXPECT_EQ(problem.num_flows, 5);
  // e (rx at the duplex-conflicted node 0) carries the RX weight.
  const auto e = g.find("e");
  ASSERT_TRUE(e.has_value());
  EXPECT_GT(problem.weights[static_cast<size_t>(*e)], 1.0);
  // a keeps weight 1.
  EXPECT_DOUBLE_EQ(problem.weights[0], 1.0);
  // The provider solves exactly this problem.
  const FluidRateProvider provider(cal);
  EXPECT_EQ(provider.rates(g), max_min_rates(problem));
}

TEST(FluidSubstrate, EmptyGraph) {
  const graph::CommGraph g;
  EXPECT_TRUE(measure_scheme_fluid(g, gigabit_ethernet_calibration()).empty());
}

// --- the arena-backed rates_into hot path ----------------------------------

// A random graph in the regime the engine hands the provider: several
// overlapping arcs over a small node set, so host-bus resources have
// multi-flow member lists, plus intra-node copies on the shm engines.
graph::CommGraph random_graph(Rng& rng, int nodes, int comms) {
  graph::CommGraph g;
  for (int i = 0; i < comms; ++i) {
    const int src = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
    int dst = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
    if (dst == src && rng.uniform() < 0.7) dst = (src + 1) % nodes;
    g.add(src, dst, 1e6 + static_cast<double>(rng.below(20000000)));
  }
  return g;
}

/// rates_into against max_min_rates over the reference construction, bit for
/// bit, on `iters` random graphs under every calibration.
void expect_matches_reference(const std::optional<topo::FatTree>& tree,
                              int nodes, uint64_t seed, int iters) {
  for (const auto& cal :
       {gigabit_ethernet_calibration(), myrinet2000_calibration(),
        infiniband_calibration()}) {
    const FluidRateProvider provider(cal, tree);
    util::Arena arena;
    Rng rng(seed);
    for (int iter = 0; iter < iters; ++iter) {
      const int n = tree ? nodes : 2 + static_cast<int>(rng.below(8));
      const auto g = random_graph(rng, n, 1 + static_cast<int>(rng.below(16)));
      const auto reference = max_min_rates(reference_problem(g, cal, tree));
      std::vector<double> out(static_cast<size_t>(g.size()), -1.0);
      util::Arena::Frame frame(arena);
      provider.rates_into(g, arena, out);
      ASSERT_EQ(out.size(), reference.size());
      for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], reference[i])  // bitwise, not approximate
            << to_string(cal.tech) << " iter " << iter << " comm " << i;
    }
  }
}

TEST(FluidSubstrate, RatesIntoIsBitIdenticalToRates) {
  expect_matches_reference(std::nullopt, 0, 99, 100);
}

TEST(FluidSubstrate, RatesIntoIsBitIdenticalUnderAFatTree) {
  // Inner links add fat-tree resources after the host buses; the arena path
  // must replicate that construction order exactly.
  const auto cluster =
      topo::ClusterSpec::uniform("ft", 16, 1, gigabit_ethernet_calibration());
  expect_matches_reference(topo::FatTree::for_cluster(cluster, 4), 16, 7, 50);
}

TEST(FluidSubstrate, RatesIntoIsAllocationFreeOnceWarm) {
  const FluidRateProvider provider(gigabit_ethernet_calibration());
  util::Arena arena;
  const auto g = fig2_scheme(5);
  std::vector<double> out(static_cast<size_t>(g.size()));
  {
    util::Arena::Frame frame(arena);
    provider.rates_into(g, arena, out);  // warm-up may grow the arena
  }
  arena.reset();
  const uint64_t a0 = util::alloc_count();
  for (int rep = 0; rep < 8; ++rep) {
    util::Arena::Frame frame(arena);
    provider.rates_into(g, arena, out);
  }
  EXPECT_EQ(util::alloc_count(), a0);
}

TEST(FluidSubstrate, BaseClassRatesIntoFallbackMatchesRates) {
  // A provider that overrides only the vector API exercises the documented
  // base default: forward to rates() and copy. Correct, just allocating.
  class Doubler final : public RateProvider {
   public:
    [[nodiscard]] std::vector<double> rates(
        const graph::CommGraph& active) const override {
      std::vector<double> r(static_cast<size_t>(active.size()));
      for (graph::CommId i = 0; i < active.size(); ++i)
        r[static_cast<size_t>(i)] = 2.0 * static_cast<double>(i + 1);
      return r;
    }
  };
  const Doubler provider;
  util::Arena arena;
  graph::CommGraph g;
  g.add(0, 1, 1.0);
  g.add(1, 2, 1.0);
  g.add(2, 0, 1.0);
  std::vector<double> out(3, -1.0);
  provider.rates_into(g, arena, out);
  const auto reference = provider.rates(g);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], reference[i]);
}

}  // namespace
}  // namespace bwshare::flowsim
