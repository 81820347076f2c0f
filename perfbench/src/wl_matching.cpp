// matching-64k: three seeded perfect-matching rounds on 65 536 single-core
// nodes, replayed on the fluid substrate (heap queue, serial solve). Every
// component is a singleton, so engine bookkeeping dominates the replay.
#include <cfloat>
#include <cmath>
#include <memory>

#include "flowsim/fluid_network.hpp"
#include "generators.hpp"
#include "sim/engine.hpp"
#include "topo/cluster.hpp"
#include "util/alloc_counter.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bws = bwshare;

namespace {

constexpr int kNodes = 65536;
constexpr int kRounds = 3;
constexpr double kBytes = 4e6;

struct Setup {
  bws::sim::AppTrace trace;
  bws::topo::ClusterSpec cluster;
  bws::sim::Placement placement;
  bws::flowsim::FluidRateProvider provider;
  bws::sim::SimResult reference;  // the untimed warm-up replay

  explicit Setup(uint64_t seed)
      : trace(matching_trace(kNodes, kRounds, kBytes, seed)),
        cluster(bws::topo::ClusterSpec::uniform(
            "matching", kNodes, 1, bws::topo::gigabit_ethernet_calibration())),
        placement(bws::sim::make_placement(
            bws::sim::SchedulingPolicy::kRoundRobinNode, cluster, kNodes)),
        provider(cluster.network()),
        reference(bws::sim::run_simulation(trace, cluster, placement,
                                           provider)) {}
};

}  // namespace

void run_matching(const Options& opt, Report& r) {
  std::unique_ptr<Setup> s;
  for (int i = 0; i < (opt.trace ? 1 : 3); ++i) {
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<Setup>(opt.seed);
    r.setup_s.push_back(seconds_since(t0));
    s = std::move(fresh);
  }
  const size_t expected = static_cast<size_t>(kRounds) * kNodes / 2;
  r.checks.expect(s->reference.comms.size() == expected,
                  "comm count is rounds x nodes / 2");
  // Pairs are disjoint, so every transfer runs unshared: its penalty is 1
  // up to the rounding of (finish - start) / reference on absolute times.
  bool unit = true;
  for (const auto& c : s->reference.comms)
    unit = unit && std::abs(c.penalty - 1.0) <= 4 * DBL_EPSILON;
  r.checks.expect(unit, "every penalty is 1 (pairs are disjoint)");

  const auto replay = [&](const bws::flowsim::RateProvider& provider,
                          Tracer* tracer) {
    const auto t0 = Clock::now();
    bws::sim::SimResult res;
    {
      Tracer::Scope span(tracer, "sim.run_simulation");
      res = bws::sim::run_simulation(s->trace, s->cluster, s->placement,
                                     provider);
    }
    const double sec = seconds_since(t0);
    r.checks.expect(bws::sim::bit_identical(res, s->reference),
                    "replay is bit-identical to the warm-up replay");
    return sec;
  };

  if (!opt.trace) {
    const auto times =
        repeat_for(opt.seconds, [&] { return replay(s->provider, nullptr); });
    r.peak_rss_mb = peak_rss_mb();
    for (const double t : times) {
      r.timed_s += t;
      r.batch_ms.push_back(t * 1e3);
      r.pass_s.push_back(t);
    }
    r.requests = times.size();
    r.comm_records = static_cast<double>(times.size() * expected);
    return;
  }

  const auto untraced = repeat_for(
      opt.seconds / 2, [&] { return replay(s->provider, nullptr); });
  Tracer tracer;
  const TimingProvider fluid(s->provider);
  ReplayTally tally;
  const auto traced = repeat_for(opt.seconds / 2, [&] {
    tracer.begin_request();
    ++tally.ops;
    const uint64_t a0 = bws::util::alloc_count();
    const double t = replay(fluid, &tracer);
    tally.allocs += static_cast<double>(bws::util::alloc_count() - a0);
    tally.replay_ms += t * 1e3;
    tally.comms += static_cast<double>(expected);
    return t;
  });
  fill_replay_layers(r, tally, fluid.totals(), {});
  fill_overhead(r, untraced, traced);
  finish_trace(r, tracer, opt.trace_out);
}

}  // namespace perfbench
