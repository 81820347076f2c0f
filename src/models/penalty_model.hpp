// The predictive-model interface (paper §V).
//
// Reproduces: the §IV-B penalty definition p_i = T_i / T_ref that every
// figure of the paper is phrased in; concrete models (gige.hpp §V-A,
// myrinet.hpp §V-B, infiniband.hpp, baselines.hpp §II) implement it.
// Per-model equations, parameters and CLI invocations: docs/MODELS.md.
//
// A penalty model looks at a communication graph — the set of point-to-point
// communications that are in flight at the same time — and assigns each
// communication a penalty p >= 1: the factor by which bandwidth sharing
// inflates its completion time relative to an unconflicted transfer
// (paper §IV-B: p_i = T_i / T_ref).
//
// A model predicts penalties only. Predicted *times* come from a §VI-A
// replay: sim::ModelRateProvider turns a model's penalties into transfer
// rates and sim::run_simulation replays the job with them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/comm_graph.hpp"

namespace bwshare::models {

class PenaltyModel {
 public:
  virtual ~PenaltyModel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Penalty for every communication in `graph` (same order as
  /// graph.comms()). Intra-node communications always get 1.0.
  [[nodiscard]] virtual std::vector<double> penalties(
      const graph::CommGraph& graph) const = 0;
};

using PenaltyModelPtr = std::unique_ptr<PenaltyModel>;

}  // namespace bwshare::models
