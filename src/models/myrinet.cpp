#include "models/myrinet.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace bwshare::models {

std::string MyrinetModel::name() const { return "myrinet"; }

MyrinetModel::Analysis MyrinetModel::analyze(const graph::CommGraph& graph,
                                             bool materialize_sets) const {
  Analysis out;
  const int n = graph.size();
  out.emission.assign(static_cast<size_t>(n), 0);
  out.min_emission.assign(static_cast<size_t>(n), 0);
  out.penalty.assign(static_cast<size_t>(n), 1.0);
  if (n == 0) return out;

  const graph::ConflictGraph conflicts(graph);
  const auto components = conflicts.components();

  // Per-component enumeration. Component set counts multiply globally.
  std::vector<uint64_t> comp_sets(components.size(), 1);
  // In-component emission count per comm.
  std::vector<uint64_t> local_emission(static_cast<size_t>(n), 0);
  std::vector<size_t> comp_of(static_cast<size_t>(n), 0);
  // Per-component materialized sets (comm ids), for cross-product display.
  std::vector<std::vector<std::vector<graph::CommId>>> comp_mis(
      components.size());

  for (size_t ci = 0; ci < components.size(); ++ci) {
    const auto& comp = components[ci];
    AdjacencyMatrix local(static_cast<int>(comp.size()));
    for (size_t a = 0; a < comp.size(); ++a) {
      comp_of[static_cast<size_t>(comp[a])] = ci;
      for (size_t b = a + 1; b < comp.size(); ++b)
        if (conflicts.conflicts(comp[a], comp[b]))
          local.add_edge(static_cast<int>(a), static_cast<int>(b));
    }
    const MisResult mis =
        enumerate_maximal_independent_sets(local, kMaxStateSets);
    if (!mis.complete) out.complete = false;
    comp_sets[ci] = mis.sets.size();
    const auto counts = emission_counts(mis, static_cast<int>(comp.size()));
    for (size_t a = 0; a < comp.size(); ++a)
      local_emission[static_cast<size_t>(comp[a])] = counts[a];
    if (materialize_sets) {
      comp_mis[ci].reserve(mis.sets.size());
      for (const auto& set : mis.sets) {
        std::vector<graph::CommId> ids;
        ids.reserve(set.size());
        for (int v : set) ids.push_back(comp[static_cast<size_t>(v)]);
        comp_mis[ci].push_back(std::move(ids));
      }
    }
  }

  // Global state-set count (saturating).
  unsigned __int128 total = 1;
  constexpr uint64_t kLimit = std::numeric_limits<uint64_t>::max();
  for (uint64_t m : comp_sets) {
    total *= m;
    if (total > kLimit) {
      total = kLimit;
      out.complete = false;
      break;
    }
  }
  out.num_state_sets = static_cast<uint64_t>(total);

  // Global emission = local count x product of the other components' counts.
  for (graph::CommId i = 0; i < n; ++i) {
    const size_t ci = comp_of[static_cast<size_t>(i)];
    const uint64_t others =
        comp_sets[ci] == 0 ? 0 : out.num_state_sets / comp_sets[ci];
    out.emission[static_cast<size_t>(i)] =
        local_emission[static_cast<size_t>(i)] * others;
  }

  // Per-source-node minimum over outgoing *network* communications: the NIC
  // shares the card fairly, so each outgoing comm moves at the slowest
  // sibling's pace (paper fig 6 "Minimum" row).
  std::vector<uint64_t> min_local(static_cast<size_t>(n), 0);
  for (graph::CommId i = 0; i < n; ++i) {
    if (graph.is_intra_node(i)) {
      out.min_emission[static_cast<size_t>(i)] =
          out.emission[static_cast<size_t>(i)];
      min_local[static_cast<size_t>(i)] =
          local_emission[static_cast<size_t>(i)];
      continue;
    }
    uint64_t lo = local_emission[static_cast<size_t>(i)];
    uint64_t lo_global = out.emission[static_cast<size_t>(i)];
    for (graph::CommId j : graph.same_source(i)) {
      lo = std::min(lo, local_emission[static_cast<size_t>(j)]);
      lo_global = std::min(lo_global, out.emission[static_cast<size_t>(j)]);
    }
    min_local[static_cast<size_t>(i)] = lo;
    out.min_emission[static_cast<size_t>(i)] = lo_global;
  }

  // Penalty = #sets / clamped emission, computed per component so the result
  // is exact even when the global product saturates.
  for (graph::CommId i = 0; i < n; ++i) {
    const size_t ci = comp_of[static_cast<size_t>(i)];
    const uint64_t lo = min_local[static_cast<size_t>(i)];
    if (lo == 0) {
      // A comm that never sends in any state set (cannot happen for maximal
      // sets, but be defensive against an early enumeration stop).
      out.penalty[static_cast<size_t>(i)] =
          static_cast<double>(comp_sets[ci]);
      continue;
    }
    out.penalty[static_cast<size_t>(i)] =
        static_cast<double>(comp_sets[ci]) / static_cast<double>(lo);
  }

  if (materialize_sets) {
    // Cross product across components (small graphs only).
    std::vector<std::vector<graph::CommId>> sets{{}};
    for (size_t ci = 0; ci < components.size(); ++ci) {
      std::vector<std::vector<graph::CommId>> next;
      next.reserve(sets.size() * comp_mis[ci].size());
      for (const auto& prefix : sets)
        for (const auto& choice : comp_mis[ci]) {
          auto merged = prefix;
          merged.insert(merged.end(), choice.begin(), choice.end());
          next.push_back(std::move(merged));
          BWS_CHECK(next.size() <= kMaxStateSets,
                    "too many state sets to materialize");
        }
      sets = std::move(next);
    }
    for (auto& set : sets) std::sort(set.begin(), set.end());
    std::sort(sets.begin(), sets.end());
    out.state_sets = std::move(sets);
  }

  return out;
}

std::vector<double> MyrinetModel::penalties(
    const graph::CommGraph& graph) const {
  return analyze(graph).penalty;
}

}  // namespace bwshare::models
