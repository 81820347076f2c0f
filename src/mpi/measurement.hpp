// The paper's §IV-B measurement software, reimplemented over the simulator:
//
//   "The parameters of the software are: iteration number of MPI_SEND; a
//    referential time (one 20 MB MPI_Send node 0 -> node 1 with nothing
//    else); a description of the communication task scheme. At the end, the
//    software gives us the penalty P_i = T_i / T_ref for each task."
//
// A communication scheme (graph::CommGraph over cluster nodes) is turned
// into an MPI job: one sender and one receiver task per communication,
// pinned to the scheme's nodes; warm-up rounds precede measured rounds, and
// a barrier separates iterations so every round starts simultaneously.
#pragma once

#include <vector>

#include "flowsim/fluid_network.hpp"
#include "graph/comm_graph.hpp"
#include "topo/cluster.hpp"

namespace bwshare::mpi {

struct MeasurementConfig {
  /// Measured iterations of each MPI_Send.
  int iterations = 3;
  /// Unmeasured warm-up iterations (the paper uses them to defeat cache
  /// effects).
  int warmup = 1;
  /// Message size for the referential time probe.
  double reference_bytes = 20e6;
};

struct PenaltyMeasurement {
  /// Referential time T_ref at reference_bytes.
  double t_ref = 0.0;
  /// Per-communication mean sender time T_i (graph order).
  std::vector<double> times;
  /// Per-communication penalty P_i = T_i / t_ref_i, where t_ref_i is the
  /// referential time scaled to comm i's size.
  std::vector<double> penalties;
};

/// Run the measurement software for `scheme` on `cluster`, with transfer
/// rates supplied by `provider` (fluid substrate or a model).
[[nodiscard]] PenaltyMeasurement measure_scheme_penalties(
    const graph::CommGraph& scheme, const topo::ClusterSpec& cluster,
    const flowsim::RateProvider& provider, const MeasurementConfig& config = {});

/// A MeasureFn (models/estimation.hpp signature) backed by this software.
[[nodiscard]] std::vector<double> measure_times(
    const graph::CommGraph& scheme, const topo::ClusterSpec& cluster,
    const flowsim::RateProvider& provider, const MeasurementConfig& config = {});

/// Per-communication completion penalties of one simultaneous start of
/// `scheme` on the fluid substrate under `cal`: a single round of the
/// measurement job replayed through sim::run_simulation with a
/// FluidRateProvider, one node per scheme node. Each entry is the engine's
/// CommRecord::penalty, (finish - start) / unconflicted reference duration
/// (§IV-B's P_i = T_i / T_ref), in comm order. Completion-based: comms that
/// outlive their rivals speed up at the end, which dilutes their penalty. An
/// empty scheme yields no penalties.
[[nodiscard]] std::vector<double> completion_penalties(
    const graph::CommGraph& scheme, const topo::NetworkCalibration& cal);

}  // namespace bwshare::mpi
