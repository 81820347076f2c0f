#include "sim/rate_model.hpp"

#include "util/error.hpp"

namespace bwshare::sim {

ModelRateProvider::ModelRateProvider(
    std::shared_ptr<const models::PenaltyModel> model,
    topo::NetworkCalibration cal)
    : model_(std::move(model)), cal_(cal) {
  BWS_CHECK(model_ != nullptr, "model must not be null");
  BWS_CHECK(cal_.link_bandwidth > 0.0, "calibration must be set");
}

std::vector<double> ModelRateProvider::rates(
    const graph::CommGraph& active) const {
  const auto penalties = model_->penalties(active);
  std::vector<double> rates(penalties.size(), 0.0);
  for (graph::CommId i = 0; i < active.size(); ++i) {
    const double ref = active.is_intra_node(i) ? cal_.shm_bandwidth
                                               : cal_.reference_bandwidth();
    rates[static_cast<size_t>(i)] = ref / penalties[static_cast<size_t>(i)];
  }
  return rates;
}

}  // namespace bwshare::sim
