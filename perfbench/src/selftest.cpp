// perfbench_selftest — checks the benchmark's own machinery, not the
// program:
//   * a TimingProvider-decorated replay is sim::bit_identical to an
//     undecorated one, for the fluid, GigE and Myrinet providers, under
//     SolveMode::kSerial and kParallel;
//   * the seeded generators give byte-identical inputs for one seed and
//     different inputs for another.
// Exit code 0 means every check passed.
#include <iostream>
#include <memory>
#include <string>

#include "flowsim/fluid_network.hpp"
#include "generators.hpp"
#include "hpl/hpl_trace.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/trace_io.hpp"
#include "timing_provider.hpp"
#include "topo/cluster.hpp"
#include "util/threadpool.hpp"

namespace {

namespace bws = bwshare;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

void decorated_replays_are_bit_identical() {
  bws::hpl::HplParams params;
  params.tasks = 32;
  params.max_panels = 24;
  const auto hpl = bws::hpl::make_hpl_trace(params);
  const auto matching = perfbench::matching_trace(256, 2, 4e6, 7);
  bws::util::ThreadPool pool(4);

  struct Case {
    const char* name;
    const bws::sim::AppTrace* trace;
    bws::topo::ClusterSpec cluster;
    bws::sim::SchedulingPolicy policy;
  };
  const Case cases[] = {
      {"hpl/gige", &hpl, bws::topo::ClusterSpec::ibm_eserver326_gige(16),
       bws::sim::SchedulingPolicy::kRoundRobinProcessor},
      {"hpl/myrinet", &hpl, bws::topo::ClusterSpec::ibm_eserver325_myrinet(16),
       bws::sim::SchedulingPolicy::kRandom},
      {"matching/gige", &matching,
       bws::topo::ClusterSpec::uniform(
           "m", 256, 1, bws::topo::gigabit_ethernet_calibration()),
       bws::sim::SchedulingPolicy::kRoundRobinNode},
  };
  for (const Case& c : cases) {
    const auto placement = bws::sim::make_placement(
        c.policy, c.cluster, c.trace->num_tasks(), 11);
    const bws::flowsim::FluidRateProvider fluid(c.cluster.network());
    const bws::sim::ModelRateProvider gige(bws::models::make_model("gige"),
                                           c.cluster.network());
    const bws::sim::ModelRateProvider myrinet(
        bws::models::make_model("myrinet"), c.cluster.network());
    const std::pair<const char*, const bws::flowsim::RateProvider*>
        providers[] = {{"fluid", &fluid}, {"gige", &gige}, {"myrinet", &myrinet}};
    for (const auto& [pname, inner] : providers) {
      const auto plain =
          bws::sim::run_simulation(*c.trace, c.cluster, placement, *inner);
      for (const auto mode :
           {bws::sim::SolveMode::kSerial, bws::sim::SolveMode::kParallel}) {
        bws::sim::EngineConfig cfg;
        cfg.solve = mode;
        cfg.solve_pool = &pool;
        const perfbench::TimingProvider timed(*inner);
        const auto decorated =
            bws::sim::run_simulation(*c.trace, c.cluster, placement, timed, cfg);
        const bool serial = mode == bws::sim::SolveMode::kSerial;
        expect(bws::sim::bit_identical(plain, decorated) &&
                   timed.totals().calls > 0,
               std::string(c.name) + " " + pname +
                   (serial ? " serial" : " parallel") +
                   ": decorated replay is bit-identical");
      }
    }
  }
}

void generators_are_seeded() {
  using perfbench::kHeldOutSeed;
  const auto trace = [](uint64_t seed) {
    return bws::sim::write_trace(perfbench::matching_trace(512, 3, 4e6, seed));
  };
  const auto stream = [](uint64_t seed) {
    return perfbench::serve_stream(seed, 50).text();
  };
  expect(trace(1) == trace(1), "matching trace: same seed, same bytes");
  expect(trace(1) != trace(2), "matching trace: other seed, other bytes");
  expect(trace(kHeldOutSeed) != trace(1),
         "matching trace: held-out seed differs from seed 1");
  expect(stream(1) == stream(1), "serve stream: same seed, same bytes");
  expect(stream(1) != stream(2), "serve stream: other seed, other bytes");
  expect(stream(kHeldOutSeed) != stream(1),
         "serve stream: held-out seed differs from seed 1");
  const auto s = perfbench::serve_stream(3, 200);
  expect(s.batches.size() == 200 && s.num_queries() == 1600,
         "serve stream: 200 batches of 8 queries");
}

}  // namespace

int main() {
  decorated_replays_are_bit_identical();
  generators_are_seeded();
  std::cout << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}
