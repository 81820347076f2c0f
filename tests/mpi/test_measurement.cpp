// The §IV-B measurement software must reproduce the substrate's fig-2
// penalties end-to-end (through real simulated MPI jobs with barriers):
// measure_times returns T_i, and P_i is T_i over a size-matched reference.
#include "mpi/measurement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generator.hpp"
#include "graph/schemes.hpp"
#include "models/gige.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "util/error.hpp"

namespace bwshare::mpi {
namespace {

topo::ClusterSpec gige_cluster() {
  return topo::ClusterSpec::uniform("gige", 8, 2,
                                    topo::gigabit_ethernet_calibration());
}

/// The §IV-B referential time under `provider`: one lone 20 MB send.
double fan1_time(const topo::ClusterSpec& cluster,
                 const flowsim::RateProvider& provider) {
  return measure_times(graph::schemes::outgoing_fan(1), cluster, provider)[0];
}

TEST(Measurement, ReferenceTimeMatchesCalibration) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const double t_ref = fan1_time(cluster, provider);
  const double calibrated = cluster.network().reference_time(20e6);
  EXPECT_NEAR(t_ref, calibrated, 1e-3);
  EXPECT_NEAR(t_ref / calibrated, 1.0, 0.01);
}

TEST(Measurement, Fig2FanPenaltiesOnSubstrate) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const double t_ref = fan1_time(cluster, provider);
  for (const double t :
       measure_times(graph::schemes::fig2_scheme(2), cluster, provider))
    EXPECT_NEAR(t / t_ref, 1.5, 0.03);
  for (const double t :
       measure_times(graph::schemes::fig2_scheme(3), cluster, provider))
    EXPECT_NEAR(t / t_ref, 2.25, 0.05);
}

TEST(Measurement, ModelProviderReproducesModelPenalties) {
  const auto cluster = gige_cluster();
  const auto model = std::make_shared<models::GigabitEthernetModel>();
  const sim::ModelRateProvider provider(model, cluster.network());
  const double t_ref = fan1_time(cluster, provider);
  for (const double t :
       measure_times(graph::schemes::outgoing_fan(3), cluster, provider))
    EXPECT_NEAR(t / t_ref, 2.25, 0.02);
}

TEST(Measurement, MixedSizesGetSizeMatchedReferences) {
  graph::CommGraph scheme;
  scheme.add("big", 0, 1, 20e6);
  scheme.add("small", 2, 3, 4e6);  // unconflicted
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto times = measure_times(scheme, cluster, provider);
  ASSERT_EQ(times.size(), 2u);
  // Both comms are unconflicted: penalties ~1 against the reference time
  // of their own size.
  EXPECT_NEAR(times[0] / cluster.network().reference_time(20e6), 1.0, 0.02);
  EXPECT_NEAR(times[1] / cluster.network().reference_time(4e6), 1.0, 0.02);
}

TEST(Measurement, WarmupIterationsDoNotChangeSteadyState) {
  // Every round starts together behind a barrier, so the mean over the
  // measured rounds equals the sender time of a lone first round.
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto scheme = graph::schemes::fig2_scheme(3);
  sim::AppTrace trace(2 * scheme.size());
  std::vector<topo::NodeId> nodes;
  for (graph::CommId i = 0; i < scheme.size(); ++i) {
    trace.push(2 * i, sim::Event::send(2 * i + 1, scheme.comm(i).bytes));
    trace.push(2 * i + 1, sim::Event::recv(2 * i, scheme.comm(i).bytes));
    nodes.push_back(scheme.comm(i).src);
    nodes.push_back(scheme.comm(i).dst);
  }
  const auto one_round = sim::run_simulation(
      trace, cluster, sim::Placement(std::move(nodes)), provider);
  const auto times = measure_times(scheme, cluster, provider);
  ASSERT_EQ(one_round.comms.size(), times.size());
  for (size_t i = 0; i < times.size(); ++i)
    EXPECT_NEAR(times[i], one_round.comms[i].sender_time, 1e-6) << i;
}

TEST(Measurement, Validation) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  EXPECT_THROW((void)measure_times(graph::CommGraph{}, cluster, provider),
               Error);
  // Scheme referencing node 20 on an 8-node cluster.
  graph::CommGraph big;
  big.add("x", 0, 20, 1e6);
  EXPECT_THROW((void)measure_times(big, cluster, provider), Error);
}

// --- measure_times goldens -------------------------------------------------
//
// The campaign-adaptive benchmark's two generator specs at seed 0 on a 16x2
// cluster, under each interconnect's fluid substrate and its own model:
// every T_i pinned exactly (printed %.17g), so a change to the measurement
// job, the engine or a provider that moves any time shows here.

struct TimesGolden {
  int spec;  // index into kGoldenSpecs
  topo::NetworkTech tech;
  bool model;  // models::model_for(tech) instead of the fluid substrate
  std::vector<double> times;
};

const char* const kGoldenSpecs[] = {"random:nodes=16,comms=24,spread=1",
                                    "hotspot:nodes=16,spread=1"};

const std::vector<TimesGolden>& times_goldens() {
  static const std::vector<TimesGolden> goldens = {
    {0, topo::NetworkTech::kGigabitEthernet, false,
     {0.20913396504815485, 0.19672154748766635, 0.062803164619904886,
      0.16706922417427894, 0.22303221786664174, 0.16346244601596416,
      0.10620988995306779, 0.051983039944130234, 0.10296348497463448,
      0.13794891083983774, 0.17700310286446785, 0.10096452635513709,
      0.077152976659598291, 0.16687395477014377, 0.033881396968713069,
      0.073859007359236992, 0.12322089057320751, 0.22747288225092688,
      0.15666998968512569, 0.028930984741776699, 0.089693385017442506,
      0.097395171583055107, 0.23131946135188552, 0.086709178986577706}},
    {0, topo::NetworkTech::kGigabitEthernet, true,
     {0.12329789716042439, 0.14895996888717328, 0.12402114782220726,
      0.069457799872698039, 0.13292249439225307, 0.063443088189041458,
      0.10720481106067765, 0.050111650506141525, 0.10521684223695456,
      0.078065831259176474, 0.096364269620395293, 0.10442794021638042,
      0.08891863288789785, 0.086599770857466896, 0.033881396968713069,
      0.071200083094304423, 0.070628882358826639, 0.13435681926097059,
      0.087991289399117226, 0.041834203936609131, 0.075912066701797024,
      0.095550547755788348, 0.10944108153986017, 0.093528581586060269}},
    {0, topo::NetworkTech::kMyrinet2000, false,
     {0.087992506560530981, 0.097887894399910733, 0.028596153771340296,
      0.063556370769139406, 0.11052050172480893, 0.092697204117424825,
      0.052928380903209636, 0.0259915199720651, 0.05148174248731726,
      0.056693911571937504, 0.086668086335710395, 0.041786886462448901,
      0.03887212871746358, 0.081603512288548355, 0.013374235645544635,
      0.036929503679618489, 0.050808928901498775, 0.098056977839560355,
      0.059756237397239363, 0.013234668225881379, 0.046723363685842421,
      0.049292478253541237, 0.11379178204793144, 0.034064320316155541}},
    {0, topo::NetworkTech::kMyrinet2000, true,
     {0.084024039465790623, 0.08027892814730693, 0.046564134486955379,
      0.028716826608207166, 0.071201412455493648, 0.049137958683112083,
      0.075114039861945314, 0.022132713768598544, 0.073480982685441842,
      0.038705898263628635, 0.072495331585518075, 0.074184145739685667,
      0.078422874499462489, 0.065948268336006324, 0.013374235645544635,
      0.03071026242961479, 0.031955213851309762, 0.068505834359098017,
      0.081337128058713973, 0.039392115006713899, 0.058536700477788119,
      0.069224226962272969, 0.075318810797267211, 0.066582085020591375}},
    {0, topo::NetworkTech::kInfinibandInfinihost3, false,
     {0.019675798734063738, 0.023380185118486389, 0.0073791483745925847,
      0.01416782983324707, 0.025525015802087356, 0.021069191400241338,
      0.013238331790401769, 0.0064978799930162775, 0.012870435621829315,
      0.012696796348364936, 0.020160198188041555, 0.010337541101778388,
      0.0098400407017173001, 0.018894054676251045, 0.0036510126043871869,
      0.009167839988463853, 0.011380940086726432, 0.022360683495607946,
      0.013324525382296032, 0.0033953429257884103, 0.010587576296547658,
      0.012323119563385309, 0.026418037729376561, 0.0084068995652050553}},
    {0, topo::NetworkTech::kInfinibandInfinihost3, true,
     {0.019675798734063735, 0.024479352231066311, 0.015839519559152207,
      0.016331119141681973, 0.02636189219883911, 0.021069191400241327,
      0.013469202137280825, 0.0064978799930162775, 0.012786935009137856,
      0.01269679634836493, 0.02078214386421659, 0.012953936234520763,
      0.011389945389730954, 0.01951600035242608, 0.012805220724346283,
      0.009232375919904624, 0.011380940086726438, 0.023161382392120705,
      0.013324525382296032, 0.00542455963908313, 0.017235849543885962,
      0.011965960921471841, 0.027254914126128307, 0.011463953952552342}},
    {1, topo::NetworkTech::kGigabitEthernet, false,
     {0.68266967426954483, 0.43683752222863514, 0.69617332874820337,
      0.50512929199730527, 0.67315814022363651, 0.66639631394106758,
      0.60411720233788746, 0.70296154713463144, 0.71046942050688211,
      0.44313390154145288, 0.69685926864783043, 0.69535123273859456,
      0.4338109044835381, 0.64007692099989921, 0.6276528467944853}},
    {1, topo::NetworkTech::kGigabitEthernet, true,
     {0.35354620843146556, 0.2432015711653277, 0.3398918822155706,
      0.23159415318841758, 0.35017114796356252, 0.31928188196825552,
      0.32087718288481842, 0.34668010060199855, 0.35418797397424934,
      0.24625716700831282, 0.34057782211519733, 0.35719319256635562,
      0.241616199965515, 0.33665009502029947, 0.2968182758703371}},
    {1, topo::NetworkTech::kMyrinet2000, false,
     {0.28036136654026622, 0.17714349395532913, 0.33948361465178473,
      0.2849705574061247, 0.27544622993652396, 0.32917861452812719,
      0.24481761449708586, 0.34287772384499871, 0.34584135807088717,
      0.1796156588768382, 0.33982658460159815, 0.28676832407723779,
      0.17593412618848178, 0.26013112142473743, 0.31794681147916809}},
    {1, topo::NetworkTech::kMyrinet2000, true,
     {0.18607695180603456, 0.12800082692911985, 0.17889046432398459,
      0.1218916595728514, 0.18430060419134872, 0.1680430957727661,
      0.16888272783411495, 0.1824632108431572, 0.18542684506904561,
      0.12960903526753306, 0.1792514853237881, 0.18751655080664906,
      0.12716642103448159, 0.17718426053699976, 0.15622014519491431}},
    {1, topo::NetworkTech::kInfinibandInfinihost3, false,
     {0.062644982748491299, 0.039641957496785347, 0.078046092354945376,
      0.064508876226551257, 0.06155532506818636, 0.075469842324030978,
      0.054739970724064058, 0.078894619653248857, 0.079703657732155209,
      0.040194158662367051, 0.078131834842398717, 0.064111240989857932,
      0.039371548179078508, 0.058150901406383626, 0.072661891561791203}},
    {1, topo::NetworkTech::kInfinibandInfinihost3, true,
     {0.062644982748491299, 0.039641957496785327, 0.078046092354945348,
      0.064508876226551229, 0.061555325068186333, 0.075469842324030964,
      0.054739970724064037, 0.078894619653248829, 0.079703657732155181,
      0.040194158662367037, 0.07813183484239869, 0.064111240989857904,
      0.039371548179078494, 0.058150901406383598, 0.072661891561791175}},
  };
  return goldens;
}

class MeasureTimes : public ::testing::TestWithParam<size_t> {};

TEST_P(MeasureTimes, MatchesPinnedTimes) {
  const TimesGolden& g = times_goldens()[GetParam()];
  const auto scheme = graph::generate_scheme(
      graph::parse_generator_spec(kGoldenSpecs[g.spec]), 0);
  const auto cluster = topo::ClusterSpec::uniform(
      "golden", std::max(16, scheme.num_nodes()), 2,
      topo::calibration_for(g.tech));
  const flowsim::FluidRateProvider fluid(cluster.network());
  const sim::ModelRateProvider model(models::model_for(g.tech),
                                     cluster.network());
  const auto times =
      g.model ? measure_times(scheme, cluster, model)
              : measure_times(scheme, cluster, fluid);
  ASSERT_EQ(times.size(), g.times.size());
  for (size_t i = 0; i < times.size(); ++i)
    EXPECT_EQ(times[i], g.times[i]) << "comm " << i;
}

INSTANTIATE_TEST_SUITE_P(
    BenchmarkSchemes, MeasureTimes,
    ::testing::Range<size_t>(0, times_goldens().size()), [](const auto& info) {
      const TimesGolden& g = times_goldens()[info.param];
      return std::string(g.spec == 0 ? "Random" : "Hotspot") +
             to_string(g.tech) + (g.model ? "Model" : "Fluid");
    });

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
