// RateProvider adapter for the paper's penalty models: whenever the set of
// in-flight communications changes, the model is re-evaluated on the
// instantaneous communication graph and each transfer drains at
// reference_bandwidth / penalty. This is how the §VI-A simulator applies the
// §V models to application traces.
#pragma once

#include <memory>

#include "flowsim/fluid_network.hpp"
#include "models/penalty_model.hpp"
#include "topo/network.hpp"

namespace bwshare::sim {

/// Const-safe and reentrant like every RateProvider (see the base class
/// contract): the penalty model is shared immutable state, all solve
/// scratch is stack-local, so the engine's parallel flush may call it from
/// several threads, one disjoint component each.
///
/// Locality: the engine evaluates the penalty model on one endpoint-closed
/// component's induced graph at a time. That is exact because every paper
/// model is local to such a set — penalties depend on node degrees,
/// strongly-slow sets and conflict-graph components, all fully determined
/// inside it (docs/PERFORMANCE.md). No coupling keys are declared.
class ModelRateProvider final : public flowsim::RateProvider {
 public:
  ModelRateProvider(std::shared_ptr<const models::PenaltyModel> model,
                    topo::NetworkCalibration cal);

  [[nodiscard]] std::vector<double> rates(
      const graph::CommGraph& active) const override;

  [[nodiscard]] const topo::NetworkCalibration& calibration() const {
    return cal_;
  }
  [[nodiscard]] const models::PenaltyModel& model() const { return *model_; }

 private:
  std::shared_ptr<const models::PenaltyModel> model_;
  topo::NetworkCalibration cal_;
};

}  // namespace bwshare::sim
