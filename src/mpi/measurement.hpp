// The paper's §IV-B measurement software, reimplemented over the simulator:
//
//   "The parameters of the software are: iteration number of MPI_SEND; a
//    referential time (one 20 MB MPI_Send node 0 -> node 1 with nothing
//    else); a description of the communication task scheme. At the end, the
//    software gives us the penalty P_i = T_i / T_ref for each task."
//
// A communication scheme (graph::CommGraph over cluster nodes) is turned
// into an MPI job: one sender and one receiver task per communication,
// pinned to the scheme's nodes; kWarmupRounds unmeasured rounds precede
// kMeasuredRounds measured ones, and a barrier separates rounds so every
// round starts simultaneously. measure_times returns the per-communication
// time T_i only. The paper's penalty P_i = T_i / T_ref comes from elsewhere:
// models::measure_reference_time (models/estimation.hpp) times the
// referential send through any MeasureFn, flowsim::saturated_penalties
// (flowsim/fluid_network.hpp) gives the substrate's steady-state penalties,
// and sim::CommRecord::penalty carries the observed penalty of every
// replayed communication.
#pragma once

#include <vector>

#include "flowsim/fluid_network.hpp"
#include "graph/comm_graph.hpp"
#include "topo/cluster.hpp"

namespace bwshare::mpi {

/// Unmeasured rounds before the measured ones (the paper uses them to
/// defeat cache effects).
inline constexpr int kWarmupRounds = 1;
/// Measured rounds; T_i is the mean sender time over them.
inline constexpr int kMeasuredRounds = 3;

/// Run the measurement software for `scheme` on `cluster`, with transfer
/// rates supplied by `provider` (fluid substrate or a model): the mean
/// sender-side time T_i of each communication over the measured rounds, in
/// graph order. A MeasureFn (models/estimation.hpp signature). Throws
/// bwshare::Error on an empty scheme or one that references more nodes than
/// the cluster has.
[[nodiscard]] std::vector<double> measure_times(
    const graph::CommGraph& scheme, const topo::ClusterSpec& cluster,
    const flowsim::RateProvider& provider);

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
