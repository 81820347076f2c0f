#include "sim/report.hpp"

#include <gtest/gtest.h>

#include "flowsim/fluid_network.hpp"
#include "sim/engine.hpp"

namespace bwshare::sim {
namespace {

SimResult sample_result() {
  AppTrace trace(3);
  trace.push(0, Event::compute(0.1));
  trace.push(0, Event::send(1, 20e6));
  trace.push(1, Event::recv(0, 20e6));
  trace.push(2, Event::send(1, 20e6));
  trace.push(1, Event::recv(2, 20e6));
  trace.push_barrier_all();
  const auto cluster = topo::ClusterSpec::uniform(
      "t", 3, 2, topo::gigabit_ethernet_calibration());
  const Placement placement({0, 1, 2});
  const flowsim::FluidRateProvider provider(cluster.network());
  return run_simulation(trace, cluster, placement, provider);
}

TEST(Report, TaskTableListsEveryTask) {
  const auto result = sample_result();
  const std::string table = render_task_table(result);
  EXPECT_NE(table.find("task"), std::string::npos);
  EXPECT_NE(table.find("send-blk"), std::string::npos);
  // Three task rows (0, 1, 2).
  EXPECT_NE(table.find("\n"), std::string::npos);
  int lines = 0;
  for (char c : table)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 2 + 3);  // header + underline + 3 rows
}

TEST(Report, SummaryMentionsKeyQuantities) {
  const auto result = sample_result();
  const std::string summary = render_summary(result);
  EXPECT_NE(summary.find("makespan"), std::string::npos);
  EXPECT_NE(summary.find("2 communications"), std::string::npos);
  EXPECT_NE(summary.find("average penalty"), std::string::npos);
}

TEST(Report, AveragePenaltyOfEmptyResultIsOne) {
  SimResult empty;
  EXPECT_DOUBLE_EQ(empty.average_penalty(), 1.0);
}

}  // namespace
}  // namespace bwshare::sim
