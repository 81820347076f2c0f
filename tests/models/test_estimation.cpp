// Closed-loop tests of the parameter estimators (§V-A): measuring a
// synthetic substrate that *is* the GigE model must recover its parameters.
#include "models/estimation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

#include "models/gige.hpp"
#include "topo/network.hpp"

namespace bwshare::models {
namespace {

/// A MeasureFn backed by a GigE model with known parameters: each comm
/// takes t_ref x penalty, with a latency-free t_ref so T stays strictly
/// proportional to the penalty.
MeasureFn model_substrate(const GigeParams& params) {
  return [params](const graph::CommGraph& g) {
    const GigabitEthernetModel model(params);
    const double bandwidth =
        topo::gigabit_ethernet_calibration().reference_bandwidth();
    std::vector<double> times = model.penalties(g);
    for (size_t i = 0; i < times.size(); ++i)
      times[i] *= g.comm(static_cast<graph::CommId>(i)).bytes / bandwidth;
    return times;
  };
}

TEST(Estimation, RecoversBetaExactly) {
  GigeParams truth;
  truth.beta = 0.8;
  const auto est = estimate_beta(model_substrate(truth));
  EXPECT_NEAR(est.beta, truth.beta, 1e-9);
  // Every fan degree individually agrees.
  for (double b : est.per_degree) EXPECT_NEAR(b, truth.beta, 1e-9);
}

TEST(Estimation, RecoversGammasExactly) {
  GigeParams truth;  // defaults: β=0.75, γo=0.115, γi=0.036
  const auto gamma = estimate_gammas(model_substrate(truth), truth.beta);
  EXPECT_NEAR(gamma.gamma_o, truth.gamma_o, 1e-9);
  EXPECT_NEAR(gamma.gamma_i, truth.gamma_i, 1e-9);
}

TEST(Estimation, FullCalibrationRoundTrips) {
  // β first, then γo/γi from it — the fig-4 driver's calibration path.
  GigeParams truth;
  truth.beta = 0.7;
  truth.gamma_o = 0.2;
  truth.gamma_i = 0.05;
  const auto measure = model_substrate(truth);
  const double beta = estimate_beta(measure).beta;
  const auto gamma = estimate_gammas(measure, beta);
  EXPECT_NEAR(beta, truth.beta, 1e-9);
  EXPECT_NEAR(gamma.gamma_o, truth.gamma_o, 1e-9);
  EXPECT_NEAR(gamma.gamma_i, truth.gamma_i, 1e-9);
}

TEST(Estimation, ReferenceTimeIsSingleCommTime) {
  GigeParams truth;
  const auto measure = model_substrate(truth);
  const double t_ref = measure_reference_time(measure, 20e6);
  const auto cal = topo::gigabit_ethernet_calibration();
  EXPECT_NEAR(t_ref, 20e6 / cal.reference_bandwidth(), 1e-9);
}

TEST(Estimation, FairSubstrateYieldsZeroGammas) {
  // A perfectly fair substrate (γ = 0 exactly) is recovered as such.
  GigeParams truth;
  truth.gamma_o = 0.0;
  truth.gamma_i = 0.0;
  const auto gamma = estimate_gammas(model_substrate(truth), truth.beta);
  EXPECT_NEAR(gamma.gamma_o, 0.0, 1e-9);
  EXPECT_NEAR(gamma.gamma_i, 0.0, 1e-9);
}

TEST(Estimation, RequiresAtLeastDegreeTwo) {
  GigeParams truth;
  EXPECT_THROW(estimate_beta(model_substrate(truth), 20e6, 1), Error);
}

}  // namespace
}  // namespace bwshare::models
