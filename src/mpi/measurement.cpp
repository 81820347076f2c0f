#include "mpi/measurement.hpp"

#include <map>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace bwshare::mpi {

namespace {

/// Build the measurement job: tasks 2i (sender) and 2i+1 (receiver) per
/// communication, `rounds` iterations separated by barriers.
sim::AppTrace build_job(const graph::CommGraph& scheme, int rounds) {
  sim::AppTrace trace(2 * scheme.size());
  for (int round = 0; round < rounds; ++round) {
    for (graph::CommId i = 0; i < scheme.size(); ++i) {
      trace.push(2 * i, sim::Event::send(2 * i + 1, scheme.comm(i).bytes));
      trace.push(2 * i + 1, sim::Event::recv(2 * i, scheme.comm(i).bytes));
    }
    trace.push_barrier_all();
  }
  trace.validate();
  return trace;
}

sim::Placement build_placement(const graph::CommGraph& scheme) {
  std::vector<topo::NodeId> nodes(static_cast<size_t>(2 * scheme.size()));
  for (graph::CommId i = 0; i < scheme.size(); ++i) {
    nodes[static_cast<size_t>(2 * i)] = scheme.comm(i).src;
    nodes[static_cast<size_t>(2 * i + 1)] = scheme.comm(i).dst;
  }
  return sim::Placement(std::move(nodes));
}

static_assert(kWarmupRounds >= 0 && kMeasuredRounds >= 1,
              "need at least one measured round");
constexpr int kRounds = kWarmupRounds + kMeasuredRounds;

/// Mean sender-side time of the measured rounds for each comm.
std::vector<double> sender_times(const sim::SimResult& result,
                                 const graph::CommGraph& scheme) {
  // Records group by (src_task): comm i uses tasks 2i -> 2i+1; they appear
  // once per round in posting order.
  std::map<sim::TaskId, std::vector<const sim::CommRecord*>> by_sender;
  for (const auto& rec : result.comms)
    by_sender[rec.src_task].push_back(&rec);

  std::vector<double> times(static_cast<size_t>(scheme.size()), 0.0);
  for (graph::CommId i = 0; i < scheme.size(); ++i) {
    const auto& records = by_sender[2 * i];
    BWS_ASSERT(static_cast<int>(records.size()) == kRounds,
               "unexpected record count for a measured communication");
    double total = 0.0;
    for (int r = kWarmupRounds; r < kRounds; ++r) {
      const auto& rec = *records[static_cast<size_t>(r)];
      const double t = rec.sender_time > 0.0 ? rec.sender_time
                                             : rec.finish - rec.send_post;
      total += t;
    }
    times[static_cast<size_t>(i)] = total / kMeasuredRounds;
  }
  return times;
}

}  // namespace

std::vector<double> measure_times(const graph::CommGraph& scheme,
                                  const topo::ClusterSpec& cluster,
                                  const flowsim::RateProvider& provider) {
  BWS_CHECK(!scheme.empty(), "scheme has no communications");
  BWS_CHECK(scheme.num_nodes() <= cluster.num_nodes(),
            "scheme references more nodes than the cluster has");
  const auto result = sim::run_simulation(build_job(scheme, kRounds), cluster,
                                          build_placement(scheme), provider);
  return sender_times(result, scheme);
}

std::vector<double> completion_penalties(const graph::CommGraph& scheme,
                                         const topo::NetworkCalibration& cal) {
  if (scheme.empty()) return {};
  const auto cluster =
      topo::ClusterSpec::uniform("fluid", scheme.num_nodes(), 1, cal);
  const flowsim::FluidRateProvider provider(cal);
  const auto result = sim::run_simulation(build_job(scheme, 1), cluster,
                                          build_placement(scheme), provider);
  BWS_ASSERT(static_cast<int>(result.comms.size()) == scheme.size(),
             "one record per communication expected");
  std::vector<double> penalties(result.comms.size());
  for (size_t i = 0; i < penalties.size(); ++i) {
    BWS_ASSERT(result.comms[i].src_task == 2 * static_cast<int>(i),
               "records must come out in comm order");
    penalties[i] = result.comms[i].penalty;
  }
  return penalties;
}

}  // namespace bwshare::mpi
