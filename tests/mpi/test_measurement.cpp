// The §IV-B measurement software must reproduce the substrate's fig-2
// penalties end-to-end (through real simulated MPI jobs with barriers).
#include "mpi/measurement.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/schemes.hpp"
#include "models/gige.hpp"
#include "sim/rate_model.hpp"
#include "util/error.hpp"

namespace bwshare::mpi {
namespace {

topo::ClusterSpec gige_cluster() {
  return topo::ClusterSpec::uniform("gige", 8, 2,
                                    topo::gigabit_ethernet_calibration());
}

TEST(Measurement, ReferenceTimeMatchesCalibration) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto m = measure_scheme_penalties(graph::schemes::outgoing_fan(1),
                                          cluster, provider);
  EXPECT_NEAR(m.t_ref, cluster.network().reference_time(20e6), 1e-3);
  EXPECT_NEAR(m.penalties[0], 1.0, 0.01);
}

TEST(Measurement, Fig2FanPenaltiesOnSubstrate) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto m2 = measure_scheme_penalties(graph::schemes::fig2_scheme(2),
                                           cluster, provider);
  for (double p : m2.penalties) EXPECT_NEAR(p, 1.5, 0.03);
  const auto m3 = measure_scheme_penalties(graph::schemes::fig2_scheme(3),
                                           cluster, provider);
  for (double p : m3.penalties) EXPECT_NEAR(p, 2.25, 0.05);
}

TEST(Measurement, ModelProviderReproducesModelPenalties) {
  const auto cluster = gige_cluster();
  const auto model = std::make_shared<models::GigabitEthernetModel>();
  const sim::ModelRateProvider provider(model, cluster.network());
  const auto m = measure_scheme_penalties(graph::schemes::outgoing_fan(3),
                                          cluster, provider);
  for (double p : m.penalties) EXPECT_NEAR(p, 2.25, 0.02);
}

TEST(Measurement, MixedSizesGetSizeMatchedReferences) {
  graph::CommGraph scheme;
  scheme.add("big", 0, 1, 20e6);
  scheme.add("small", 2, 3, 4e6);  // unconflicted
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto m = measure_scheme_penalties(scheme, cluster, provider);
  // Both comms are unconflicted: penalties ~1 despite different sizes.
  EXPECT_NEAR(m.penalties[0], 1.0, 0.02);
  EXPECT_NEAR(m.penalties[1], 1.0, 0.02);
}

TEST(Measurement, WarmupIterationsDoNotChangeSteadyState) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  MeasurementConfig no_warmup;
  no_warmup.warmup = 0;
  MeasurementConfig with_warmup;
  with_warmup.warmup = 3;
  const auto scheme = graph::schemes::fig2_scheme(3);
  const auto a = measure_scheme_penalties(scheme, cluster, provider, no_warmup);
  const auto b =
      measure_scheme_penalties(scheme, cluster, provider, with_warmup);
  for (size_t i = 0; i < a.penalties.size(); ++i)
    EXPECT_NEAR(a.penalties[i], b.penalties[i], 1e-6);
}

TEST(Measurement, Validation) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  EXPECT_THROW(
      measure_scheme_penalties(graph::CommGraph{}, cluster, provider), Error);
  MeasurementConfig bad;
  bad.iterations = 0;
  EXPECT_THROW(measure_scheme_penalties(graph::schemes::outgoing_fan(2),
                                        cluster, provider, bad),
               Error);
  // Scheme referencing node 20 on an 8-node cluster.
  graph::CommGraph big;
  big.add("x", 0, 20, 1e6);
  EXPECT_THROW(measure_scheme_penalties(big, cluster, provider), Error);
}


// --- completion_penalties: one simultaneous start on the fluid substrate ---

TEST(CompletionPenalties, IsolatedCommIsUnityOnEveryNetwork) {
  // Nothing to share with: the comm runs at its reference duration.
  for (const auto& cal : {topo::gigabit_ethernet_calibration(),
                          topo::myrinet2000_calibration(),
                          topo::infiniband_calibration()}) {
    const auto p = completion_penalties(graph::schemes::outgoing_fan(1), cal);
    ASSERT_EQ(p.size(), 1u) << to_string(cal.tech);
    EXPECT_NEAR(p[0], 1.0, 1e-12) << to_string(cal.tech);
  }
}

TEST(CompletionPenalties, OnePerCommInCommOrder) {
  // The unconflicted comm comes first, the two that share node 0's
  // outgoing link after it: the penalties follow the scheme's order.
  graph::CommGraph scheme;
  scheme.add("solo", 3, 4, 20e6);
  scheme.add("a", 0, 1, 20e6);
  scheme.add("b", 0, 2, 20e6);
  const auto p =
      completion_penalties(scheme, topo::gigabit_ethernet_calibration());
  ASSERT_EQ(p.size(), 3u);
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_GT(p[1], 1.2);
  EXPECT_EQ(p[1], p[2]);
}

TEST(CompletionPenalties, ShortRivalDilutesLongCommPenalty) {
  // A comm that outlives its rival runs alone at the end, so its penalty
  // is smaller than when the rival lasts as long as it does.
  const auto cal = topo::gigabit_ethernet_calibration();
  graph::CommGraph mixed;
  mixed.add("long", 0, 1, 20e6);
  mixed.add("short", 0, 2, 2e6);
  const auto p = completion_penalties(mixed, cal);
  const auto even = completion_penalties(graph::schemes::outgoing_fan(2), cal);
  ASSERT_EQ(p.size(), 2u);
  ASSERT_EQ(even.size(), 2u);
  EXPECT_GT(p[0], 1.0);
  EXPECT_LT(p[0], even[0]);
  EXPECT_GT(p[1], p[0]);
}

TEST(CompletionPenalties, SmallMessagesAreLatencyBound) {
  // Latency is charged once per comm and is not shared, so a 1 KB fan
  // suffers less from the conflict than a 20 MB one.
  for (const auto& cal : {topo::gigabit_ethernet_calibration(),
                          topo::myrinet2000_calibration(),
                          topo::infiniband_calibration()}) {
    const auto small =
        completion_penalties(graph::schemes::outgoing_fan(3, 1e3), cal);
    const auto large =
        completion_penalties(graph::schemes::outgoing_fan(3, 20e6), cal);
    ASSERT_EQ(small.size(), large.size());
    for (size_t i = 0; i < small.size(); ++i) {
      EXPECT_GE(small[i], 1.0) << to_string(cal.tech) << " comm " << i;
      EXPECT_LT(small[i], large[i]) << to_string(cal.tech) << " comm " << i;
    }
  }
}

TEST(CompletionPenalties, RepeatedCallsAreBitIdentical) {
  const auto cal = topo::myrinet2000_calibration();
  const auto scheme = graph::schemes::fig2_scheme(6);
  const auto first = completion_penalties(scheme, cal);
  const auto second = completion_penalties(scheme, cal);
  ASSERT_EQ(first.size(), static_cast<size_t>(scheme.size()));
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace bwshare::mpi
