// The fluid "measured" substrate: maps a communication graph onto a
// weighted max-min allocation problem shaped by the interconnect calibration
// (per-stream efficiency, duplex bus, RX weighting).
//
// FluidRateProvider plays the role of the paper's physical clusters: replayed
// through sim::run_simulation it yields the "measured" side of every
// experiment (mpi::measure_times for the §IV-B sender times T_m,
// mpi::completion_penalties for per-comm completion penalties). The
// packet-level simulators in flowsim/packet.hpp are its independent
// cross-check and agree within a few percent — see bench/abl_fluid_vs_packet.
//
// See docs/PERFORMANCE.md for the locality contract the incremental
// sim::Engine builds on: it groups transfers into components closed under
// shared endpoints and coupling_keys(), and solves each component's induced
// graph alone through rates_into().
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "flowsim/fluid.hpp"
#include "graph/comm_graph.hpp"
#include "topo/fattree.hpp"
#include "topo/network.hpp"
#include "util/arena.hpp"

namespace bwshare::flowsim {

/// Instantaneous rate oracle: given the set of concurrently active
/// communications (as a CommGraph over cluster nodes), return each one's
/// transfer rate in bytes/s. Implementations: FluidRateProvider (substrate
/// ground truth) and sim::ModelRateProvider (the paper's predictive models).
///
/// Reentrancy contract: every entry point is const and must be *logically*
/// const — no mutable members, no static or global scratch, no caching.
/// sim::Engine's parallel flush (EngineConfig::solve == kParallel) calls
/// rates_into(component_graph, ...) concurrently from several pool threads,
/// one call per disjoint component, against the same provider instance.
/// Concurrent calls must behave as if run one after another — which const
/// purity gives for free. The in-tree providers satisfy this by
/// construction (all solver state lives on the calling thread's stack);
/// new implementations must preserve it, or kParallel replays race. The
/// TSan CI job exercises exactly this path.
class RateProvider {
 public:
  virtual ~RateProvider() = default;
  [[nodiscard]] virtual std::vector<double> rates(
      const graph::CommGraph& active) const = 0;

  /// Allocation-free entry point for the engine's steady state: rates for the
  /// whole of `active`, written into `out` (size == active.size()), with all
  /// transient solver state drawn from `scratch` (typically the calling
  /// thread's util::Arena::thread_local_instance()). Bit-identical to
  /// rates(active). The base default forwards to rates(active) and copies —
  /// correct for any provider, but it allocates; providers on the hot path
  /// override it (FluidRateProvider builds the max-min problem entirely in
  /// the arena). The reentrancy contract above applies unchanged: the arena
  /// is caller-owned per-thread state, not provider state.
  virtual void rates_into(const graph::CommGraph& active, util::Arena& scratch,
                          std::span<double> out) const;

  /// Rates for `subset` only (returned in subset order), equal to the
  /// corresponding entries of rates(active): the default solves the full
  /// graph and projects. No in-tree provider overrides it and the engine
  /// never calls it — it solves each closed component's induced graph
  /// through rates_into() instead. It stays as the extension point for
  /// decorating providers.
  [[nodiscard]] virtual std::vector<double> rates(
      const graph::CommGraph& active,
      std::span<const graph::CommId> subset) const;

  /// Opaque keys of shared resources beyond the two endpoint hosts that a
  /// src -> dst communication would occupy (e.g. fat-tree inner links). Two
  /// communications whose key sets intersect must be solved in the same
  /// component even when they share no endpoint. Locality contract: solving
  /// the induced graph of a set closed under shared endpoints and shared
  /// keys alone yields that set's entries of the full solve. The default
  /// declares no extra coupling.
  [[nodiscard]] virtual std::vector<int> coupling_keys(
      topo::NodeId src, topo::NodeId dst) const;
};

/// Max-min fluid rates under a network calibration, optionally constrained
/// by a fat-tree topology's inner links.
class FluidRateProvider final : public RateProvider {
 public:
  explicit FluidRateProvider(topo::NetworkCalibration cal,
                             std::optional<topo::FatTree> topology = {});

  [[nodiscard]] std::vector<double> rates(
      const graph::CommGraph& active) const override;

  /// Arena-backed full-graph solve: the incidence buckets, member lists,
  /// weights/caps and the max-min solver's own scratch all live in `scratch`;
  /// after arena warm-up a call makes zero global allocations (rates() is a
  /// wrapper over this). Resources are built in a fixed order — host TX per
  /// node, host RX per node, duplex bus at saturated nodes, shm engine per
  /// node (each by ascending node id), then fat-tree inner links by
  /// ascending link id — with members in comm order, which pins the bitwise
  /// result (tests/flowsim/test_fluid_network.cpp keeps a map-based
  /// reference construction of the same problem).
  void rates_into(const graph::CommGraph& active, util::Arena& scratch,
                  std::span<double> out) const override;

  /// Inner (non host-adjacent) fat-tree links on the src -> dst route; empty
  /// without an attached topology.
  [[nodiscard]] std::vector<int> coupling_keys(
      topo::NodeId src, topo::NodeId dst) const override;

  [[nodiscard]] const topo::NetworkCalibration& calibration() const {
    return cal_;
  }

 private:
  topo::NetworkCalibration cal_;
  std::optional<topo::FatTree> topology_;
};

/// Instantaneous penalties while *all* communications of the scheme are in
/// flight: p_i = reference_rate / rate_i. This is the regime the paper's
/// fig-2 numbers describe (every task streams 20 MB simultaneously) and the
/// quantity the §V models predict.
[[nodiscard]] std::vector<double> saturated_penalties(
    const graph::CommGraph& graph, const topo::NetworkCalibration& cal);

}  // namespace bwshare::flowsim
