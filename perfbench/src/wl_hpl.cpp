// hpl-128: the paper's §VI-D HPL ring trace (N=20500, NB=120, lookahead)
// with 128 tasks on 64 dual-core nodes, compared measured (fluid) against
// predicted (model) under GigE and Myrinet for RRN, RRP and Random
// placement — 12 replays per set. Co-located tasks couple, so the rate
// solve is a large share of each replay. The seed drives the Random
// placement; RRN and RRP do not depend on it and are pinned.
#include <cstdio>
#include <memory>

#include "eval/experiment.hpp"
#include "hpl/hpl_trace.hpp"
#include "models/registry.hpp"
#include "sim/rate_model.hpp"
#include "util/alloc_counter.hpp"
#include "util/threadpool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bws = bwshare;

namespace {

constexpr int kTasks = 128;
constexpr int kNodes = 64;
constexpr bws::sim::SchedulingPolicy kPolicies[] = {
    bws::sim::SchedulingPolicy::kRoundRobinNode,
    bws::sim::SchedulingPolicy::kRoundRobinProcessor,
    bws::sim::SchedulingPolicy::kRandom};

bws::hpl::HplParams hpl_params() {
  bws::hpl::HplParams p;
  p.n = 20500;
  p.nb = 120;
  p.tasks = kTasks;
  return p;
}

struct Net {
  const char* name;
  bws::topo::ClusterSpec cluster;
  std::shared_ptr<const bws::models::PenaltyModel> model;
};

struct Setup {
  bws::sim::AppTrace trace;
  std::vector<Net> nets;
  /// The untimed warm-up set: one comparison per (net, policy).
  std::vector<bws::eval::ApplicationComparisonDetailed> reference;
};

std::string key(const Net& net, bws::sim::SchedulingPolicy policy) {
  return std::string(net.name) + " " + bws::sim::to_string(policy);
}

bool same(const bws::eval::ApplicationComparisonDetailed& a,
          const bws::eval::ApplicationComparisonDetailed& b) {
  return a.summary.mean_eabs == b.summary.mean_eabs &&
         bws::sim::bit_identical(*a.measured, *b.measured) &&
         bws::sim::bit_identical(*a.predicted, *b.predicted);
}

}  // namespace

void run_hpl(const Options& opt, Report& r) {
  std::unique_ptr<Setup> s;
  for (int i = 0; i < (opt.trace ? 1 : 5); ++i) {
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<Setup>(Setup{
        bws::hpl::make_hpl_trace(hpl_params()),
        {{"gige", bws::topo::ClusterSpec::ibm_eserver326_gige(kNodes),
          bws::models::make_model("gige")},
         {"myrinet", bws::topo::ClusterSpec::ibm_eserver325_myrinet(kNodes),
          bws::models::make_model("myrinet")}},
        {}});
    for (const Net& net : fresh->nets) {
      for (const auto policy : kPolicies) {
        fresh->reference.push_back(bws::eval::compare_application_detailed(
            fresh->trace, net.cluster, policy, *net.model, opt.seed));
      }
    }
    r.setup_s.push_back(seconds_since(t0));
    s = std::move(fresh);
  }

  // RRN and RRP outputs do not depend on the seed: pinned for every seed.
  const Pins pins(opt);
  double eabs_sum = 0.0;
  size_t k = 0;
  for (const Net& net : s->nets) {
    for (const auto policy : kPolicies) {
      const auto& c = s->reference[k++].summary;
      eabs_sum += c.mean_eabs;
      pins.check(r, std::string(net.name) + "/" + bws::sim::to_string(policy),
                 fmt17(c.measured_makespan) + " " +
                     fmt17(c.predicted_makespan) + " " + fmt17(c.mean_eabs));
    }
  }
  // Every comparison, Random included, must come out the same under the
  // parallel component solver.
  {
    bws::util::ThreadPool pool(4);
    bws::eval::ReplayConfig parallel;
    parallel.measured.solve = bws::sim::SolveMode::kParallel;
    parallel.measured.solve_pool = &pool;
    parallel.predicted = parallel.measured;
    k = 0;
    for (const Net& net : s->nets) {
      for (const auto policy : kPolicies) {
        const auto par = bws::eval::compare_application_detailed(
            s->trace, net.cluster, policy, *net.model, opt.seed, {}, parallel);
        r.checks.expect(same(par, s->reference[k++]),
                        "hpl " + key(net, policy) +
                            " parallel solve is bit-identical to serial");
      }
    }
  }

  const auto timed_set = [&] {
    double total = 0.0;
    size_t i = 0;
    for (const Net& net : s->nets) {
      for (const auto policy : kPolicies) {
        const auto t0 = Clock::now();
        const auto cmp = bws::eval::compare_application_detailed(
            s->trace, net.cluster, policy, *net.model, opt.seed);
        total += seconds_since(t0);
        r.comm_records += static_cast<double>(cmp.measured->comms.size() +
                                              cmp.predicted->comms.size());
        r.checks.expect(same(cmp, s->reference[i++]),
                        "hpl " + key(net, policy) +
                            " comparison repeats bit-identically");
      }
    }
    return total;
  };

  if (!opt.trace) {
    const auto sets = repeat_for(opt.seconds, timed_set);
    r.peak_rss_mb = peak_rss_mb();
    for (const double t : sets) {
      r.timed_s += t;
      r.batch_ms.push_back(t * 1e3);
      r.pass_s.push_back(t);
    }
    r.requests = sets.size() * s->reference.size();
    return;
  }

  const auto untraced = repeat_for(opt.seconds / 2, timed_set);
  Tracer tracer;
  std::vector<double> trace_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    Tracer::Scope span(&tracer, "hpl.make_hpl_trace");
    const auto trace = bws::hpl::make_hpl_trace(hpl_params());
    trace_ms.push_back(seconds_since(t0) * 1e3);
  }
  r.layer["hpl.trace_ms"] = median(trace_ms);

  std::vector<std::unique_ptr<bws::flowsim::RateProvider>> inner;
  std::vector<std::unique_ptr<TimingProvider>> fluid, model;
  for (const Net& net : s->nets) {
    inner.push_back(std::make_unique<bws::flowsim::FluidRateProvider>(
        net.cluster.network()));
    fluid.push_back(std::make_unique<TimingProvider>(*inner.back()));
    inner.push_back(std::make_unique<bws::sim::ModelRateProvider>(
        net.model, net.cluster.network()));
    model.push_back(std::make_unique<TimingProvider>(*inner.back()));
  }
  ReplayTally tally;
  const auto replay = [&](const bws::sim::Placement& placement,
                          const Net& net, const TimingProvider& provider,
                          const bws::sim::SimResult& expected) {
    const uint64_t a0 = bws::util::alloc_count();
    const auto t0 = Clock::now();
    bws::sim::SimResult res;
    {
      Tracer::Scope span(&tracer, "sim.run_simulation");
      res = bws::sim::run_simulation(s->trace, net.cluster, placement,
                                     provider);
    }
    tally.replay_ms += seconds_since(t0) * 1e3;
    tally.allocs += static_cast<double>(bws::util::alloc_count() - a0);
    tally.comms += static_cast<double>(res.comms.size());
    r.checks.expect(bws::sim::bit_identical(res, expected),
                    "decorated replay is bit-identical to the plain one");
  };
  const auto traced = repeat_for(opt.seconds / 2, [&] {
    tracer.begin_request();
    ++tally.ops;
    const auto t0 = Clock::now();
    Tracer::Scope set_span(&tracer, "bench.replay_set");
    size_t i = 0;
    for (size_t n = 0; n < s->nets.size(); ++n) {
      for ([[maybe_unused]] const auto policy : kPolicies) {
        const auto& ref = s->reference[i++];
        replay(ref.summary.placement, s->nets[n], *fluid[n], *ref.measured);
        replay(ref.summary.placement, s->nets[n], *model[n], *ref.predicted);
      }
    }
    return seconds_since(t0);
  });
  TimingProvider::Totals f, m;
  for (const auto& p : fluid) f += p->totals();
  for (const auto& p : model) m += p->totals();
  fill_replay_layers(r, tally, f, m);
  fill_overhead(r, untraced, traced);
  r.layer["mean_eabs_pct"] =
      eabs_sum / static_cast<double>(s->reference.size());
  finish_trace(r, tracer, opt.trace_out);
}

}  // namespace perfbench
