// Packet-level simulator tests: each flow-control mechanism must show its
// characteristic sharing behaviour and agree with the fluid substrate on the
// canonical conflicts (the abl_fluid_vs_packet bench quantifies this).
#include "flowsim/packet.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/schemes.hpp"
#include "mpi/measurement.hpp"
#include "util/error.hpp"

namespace bwshare::flowsim {
namespace {

// Use ~2 MB messages: >1000 packets, fast to simulate.
constexpr double kBytes = 2e6;

TEST(PacketSim, SingleFlowReachesSingleStreamEfficiency) {
  for (const auto& cal :
       {topo::gigabit_ethernet_calibration(), topo::myrinet2000_calibration(),
        topo::infiniband_calibration()}) {
    const auto g = graph::schemes::outgoing_fan(1, kBytes);
    const auto p = measure_penalties_packet(g, cal);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_NEAR(p[0], 1.0, 0.05) << to_string(cal.tech);
  }
}

TEST(PacketSim, GigeFanSharingMatchesBeta) {
  const auto cal = topo::gigabit_ethernet_calibration();
  for (int fan = 2; fan <= 3; ++fan) {
    const auto g = graph::schemes::outgoing_fan(fan, kBytes);
    const auto p = measure_penalties_packet(g, cal);
    for (double v : p) EXPECT_NEAR(v, 0.75 * fan, 0.12) << "fan " << fan;
  }
}

TEST(PacketSim, MyrinetFanSerializes) {
  const auto cal = topo::myrinet2000_calibration();
  for (int fan = 2; fan <= 3; ++fan) {
    const auto g = graph::schemes::outgoing_fan(fan, kBytes);
    const auto p = measure_penalties_packet(g, cal);
    for (double v : p) EXPECT_NEAR(v, 0.95 * fan, 0.15) << "fan " << fan;
  }
}

TEST(PacketSim, InfinibandFanSharing) {
  const auto cal = topo::infiniband_calibration();
  for (int fan = 2; fan <= 3; ++fan) {
    const auto g = graph::schemes::outgoing_fan(fan, kBytes);
    const auto p = measure_penalties_packet(g, cal);
    for (double v : p) EXPECT_NEAR(v, 0.87 * fan, 0.15) << "fan " << fan;
  }
}

TEST(PacketSim, AgreesWithFluidOnIncomeConflict) {
  for (const auto& cal :
       {topo::gigabit_ethernet_calibration(), topo::myrinet2000_calibration(),
        topo::infiniband_calibration()}) {
    const auto g = graph::schemes::incoming_fan(3, kBytes);
    const auto packet = measure_penalties_packet(g, cal);
    const auto fluid = mpi::completion_penalties(g, cal);
    for (size_t i = 0; i < packet.size(); ++i)
      EXPECT_NEAR(packet[i] / fluid[i], 1.0, 0.15)
          << to_string(cal.tech) << " comm " << i;
  }
}

TEST(PacketSim, DuplexConflictSlowsSenders) {
  // Fig 2 scheme 5 shape: adding an incoming flow at node 0 must slow the
  // three outgoing flows well beyond the pure 3-fan penalty.
  const auto cal = topo::myrinet2000_calibration();
  const auto fan = measure_penalties_packet(
      graph::schemes::fig2_scheme(3, kBytes), cal);
  const auto duplex = measure_penalties_packet(
      graph::schemes::fig2_scheme(5, kBytes), cal);
  EXPECT_GT(duplex[0], fan[0] * 1.25);
}

TEST(PacketSim, IntraNodeFlow) {
  graph::CommGraph g;
  g.add("shm", 1, 1, 1e6);
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto t = measure_scheme_packet(g, cal);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_NEAR(t[0], cal.latency + 1e6 / cal.shm_bandwidth, 2e-4);
}

TEST(PacketSim, EmptyGraph) {
  const graph::CommGraph g;
  EXPECT_TRUE(
      measure_scheme_packet(g, topo::gigabit_ethernet_calibration()).empty());
}

TEST(PacketSim, Validation) {
  auto cal = topo::gigabit_ethernet_calibration();
  cal.link_bandwidth = 0.0;
  graph::CommGraph g;
  g.add("a", 0, 1, 1e6);
  EXPECT_THROW(measure_scheme_packet(g, cal), Error);
}

TEST(PacketSim, OverBudgetSchemeIsRejectedBeforeRunning) {
  // Two 10 GB flows are ~1.3e7 GigE packets, at least 4 events each: past
  // the 5e7-event budget before the first event runs.
  const auto g = graph::schemes::outgoing_fan(2, 10e9);
  try {
    (void)measure_scheme_packet(g, topo::gigabit_ethernet_calibration());
    FAIL() << "expected an over-budget error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "packet simulation exceeded kMaxEvents"),
              std::string::npos)
        << e.what();
  }
}

// Packet times pinned bit for bit: a change to the window, credit or
// event-budget logic that moves any of them shows here.
struct PacketGolden {
  topo::NetworkCalibration cal;
  std::vector<double> fan3;  // outgoing_fan(3, 2 MB)
  std::vector<double> s5;    // fig2_scheme(5, 2 MB)
};

TEST(PacketSim, TimesAreBitIdenticalToRecordedGoldens) {
  const PacketGolden goldens[] = {
      {topo::gigabit_ethernet_calibration(),
       {0.047888999999999328, 0.047996999999999311, 0.048092999999999296},
       {0.064082999999996809, 0.064094999999996807, 0.064106999999996805,
        0.021425999999999817, 0.059720999999997477}},
      {topo::myrinet2000_calibration(),
       {0.024026944000000466, 0.024043328000000468, 0.024059712000000469},
       {0.031413662446603312, 0.031430046446603313, 0.031446430446603314,
        0.010248000000000002, 0.021100411650486036}},
      {topo::infiniband_calibration(),
       {0.0060066880000002824, 0.0060087360000002825, 0.0060107840000002827},
       {0.0073521701052633517, 0.0073542181052633519, 0.007356266105263352,
        0.0026233920000000295, 0.0046910456140350819}},
  };
  for (const auto& g : goldens) {
    EXPECT_EQ(measure_scheme_packet(graph::schemes::outgoing_fan(3, kBytes),
                                    g.cal),
              g.fan3)
        << to_string(g.cal.tech);
    EXPECT_EQ(measure_scheme_packet(graph::schemes::fig2_scheme(5, kBytes),
                                    g.cal),
              g.s5)
        << to_string(g.cal.tech);
  }
}

}  // namespace
}  // namespace bwshare::flowsim
