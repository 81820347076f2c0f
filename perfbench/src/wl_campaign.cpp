// campaign-adaptive: an eval::Campaign on 1 thread over six arms — a
// seeded random scheme and a seeded hotspot scheme on 16 nodes, each on
// gige, myrinet and ib with the interconnect's own model — minimizing the
// measured time under the ci-width stopping rule (tolerance 0.02). It stops
// on its own; campaign i of a run takes campaign seed mix_seed(seed, i).
// This is the static-scheme path
// (compare_scheme, model penalties, MIS enumeration) plus the stats
// bootstrap behind every stopping decision.
#include <memory>
#include <stdexcept>

#include "eval/campaign.hpp"
#include "generators.hpp"
#include "graph/generator.hpp"
#include "util/threadpool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bws = bwshare;

namespace {

// Campaigns are timed on one thread, which a shared host disturbs least;
// a 4-thread run must report the same bytes.
constexpr int kThreads = 1;
constexpr int kCheckThreads = 4;
const std::vector<std::string> kSchemes = {"random:nodes=16,comms=24,spread=1",
                                           "hotspot:nodes=16,spread=1"};
const std::vector<bws::topo::NetworkTech> kNetworks = {
    bws::topo::NetworkTech::kGigabitEthernet,
    bws::topo::NetworkTech::kMyrinet2000,
    bws::topo::NetworkTech::kInfinibandInfinihost3};

bws::eval::CampaignSpec campaign_spec(uint64_t seed) {
  bws::eval::CampaignSpec spec;
  spec.grid.schemes = kSchemes;
  spec.grid.networks = kNetworks;
  spec.stop.rule = bws::stats::StoppingRule::kCiWidth;
  spec.stop.tolerance = 0.02;
  spec.objective = bws::eval::Objective::kMeasuredSeconds;
  spec.seed = seed;
  return spec;
}

/// Comm records one replicate of an arm carries (measured + predicted).
double records_per_replicate(const bws::eval::CampaignArm& arm) {
  const auto g = bws::graph::generate_scheme(
      bws::graph::parse_generator_spec(arm.workload), 0);
  return 2.0 * g.size();
}

/// The untimed warm-up: one cell per arm, on a fixed seed, so every
/// campaign's set-up does the same work.
void warm_up(const bws::eval::CampaignSpec& spec) {
  for (const auto& entry : spec.grid.schemes) {
    const auto workload = bws::eval::resolve_scheme_workload(entry);
    for (const auto tech : spec.grid.networks) {
      bws::eval::CellJob job;
      job.workload = &workload;
      job.tech = tech;
      job.model = spec.grid.models.front();
      job.shape = spec.grid.shapes.front();
      job.seed = 0;
      if (!bws::eval::run_cell(job).ok)
        throw std::runtime_error("campaign warm-up cell failed");
    }
  }
}

struct Verdict {
  int winner = -1;
  int rounds = 0;
  size_t replicates = 0;
  std::string stopped_by;
};

Verdict verdict_of(const bws::eval::CampaignResult& res) {
  return {res.winner, res.rounds, res.total_replicates, res.stopped_by};
}

bool operator==(const Verdict& a, const Verdict& b) {
  return a.winner == b.winner && a.rounds == b.rounds &&
         a.replicates == b.replicates && a.stopped_by == b.stopped_by;
}

struct LoopTally {
  double cell_ms = 0.0;
  double round_ms = 0.0;
  double eabs_sum = 0.0;  // over ok cells
  size_t ok_cells = 0;
};

/// The campaign loop rebuilt from the library's public pieces — run_cell,
/// campaign_replicate_seed and stats::SequentialTest — with Campaign::run's
/// round structure: each round's cells run on a kThreads pool and are
/// ingested in (arm, replicate) order. Every cell and every round decision
/// gets a span.
Verdict rebuilt_campaign(const bws::eval::CampaignSpec& spec, Tracer& tracer,
                         LoopTally& tally) {
  std::vector<bws::eval::ResolvedWorkload> workloads;
  for (const auto& entry : spec.grid.schemes)
    workloads.push_back(bws::eval::resolve_scheme_workload(entry));
  struct Arm {
    size_t workload;
    bws::topo::NetworkTech tech;
  };
  std::vector<Arm> arms;  // Campaign's order: workloads x networks
  for (size_t w = 0; w < workloads.size(); ++w)
    for (const auto tech : spec.grid.networks) arms.push_back({w, tech});

  struct Job {
    size_t arm = 0;
    bws::eval::CellJob cell_job;
    bws::eval::SweepCell cell;
    Clock::time_point start, end;
  };
  bws::util::ThreadPool pool(kThreads);
  bws::stats::SequentialTest test(spec.stop, arms.size());
  std::vector<int> executed(arms.size(), 0);
  std::vector<Job> jobs;
  Verdict v;
  auto status = bws::stats::SequentialStatus::kContinue;
  while (status == bws::stats::SequentialStatus::kContinue) {
    jobs.clear();
    for (size_t a = 0; a < arms.size(); ++a) {
      if (!test.arm(a).surviving()) continue;
      const int take =
          std::min(spec.batch, spec.stop.max_replicates - executed[a]);
      for (int k = 0; k < take; ++k) {
        Job job;
        job.arm = a;
        job.cell_job.workload = &workloads[arms[a].workload];
        job.cell_job.tech = arms[a].tech;
        job.cell_job.model = spec.grid.models.front();
        job.cell_job.shape = spec.grid.shapes.front();
        job.cell_job.seed = bws::eval::campaign_replicate_seed(
            spec.seed, a, executed[a]++);
        jobs.push_back(std::move(job));
      }
    }
    {
      Tracer::Scope round(&tracer, "eval.round");
      bws::util::parallel_for(pool, static_cast<int>(jobs.size()),
                              [&jobs](int i) {
                                Job& job = jobs[static_cast<size_t>(i)];
                                job.start = Clock::now();
                                job.cell = bws::eval::run_cell(job.cell_job);
                                job.end = Clock::now();
                              });
      for (const Job& job : jobs) {
        tracer.add("eval.run_cell", job.start, job.end);
        tally.cell_ms += ms_between(job.start, job.end);
        ++v.replicates;
        if (!test.arm(job.arm).surviving()) continue;
        if (job.cell.ok) {
          tally.eabs_sum += job.cell.eabs_pct;
          ++tally.ok_cells;
          test.add_sample(job.arm, job.cell.measured_s);
        } else {
          test.mark_error(job.arm);
        }
      }
      const auto t0 = Clock::now();
      {
        Tracer::Scope span(&tracer, "stats.finish_round");
        status = test.finish_round();
      }
      tally.round_ms += ms_between(t0, Clock::now());
    }
  }
  v.winner = test.leader();
  v.rounds = test.rounds();
  v.stopped_by = bws::stats::to_string(status);
  return v;
}

}  // namespace

void run_campaign(const Options& opt, Report& r) {
  // Campaign i of a run uses campaign seed mix_seed(seed, i): how many
  // rounds a campaign needs depends on its seed, so a run reports the
  // median over several campaigns instead of hinging on one.
  const auto spec_of = [&](int i) {
    return campaign_spec(mix_seed(opt.seed, static_cast<uint64_t>(i)));
  };
  bws::eval::CampaignResult first;
  std::vector<Verdict> verdicts;
  std::vector<double> untraced_s;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto t_start = Clock::now();
  do {
    const auto spec = spec_of(static_cast<int>(untraced_s.size()));
    const auto t0 = Clock::now();
    const bws::eval::Campaign campaign(spec);
    warm_up(spec);
    r.setup_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    auto res = campaign.run(kThreads);
    untraced_s.push_back(seconds_since(t1));
    bool arms_ok = true;
    for (const auto& arm : res.arms) {
      arms_ok = arms_ok && !arm.error;
      if (!opt.trace && !arm.error)
        r.comm_records += records_per_replicate(arm) * arm.replicates;
    }
    // A campaign ends by its ci-width rule or, for some seeds, by reaching
    // the per-arm budget first; either way it names a winner.
    r.checks.expect(arms_ok && res.winner >= 0 &&
                        (res.stopped_by == "ci-width" ||
                         res.stopped_by == "max-replicates"),
                    "campaign reaches a verdict with no errored arm");
    if (!opt.trace) {
      r.requests += res.total_replicates;
      r.timed_s += untraced_s.back();
      r.pass_s.push_back(untraced_s.back());
      r.batch_ms.push_back(untraced_s.back() * 1e3);
    }
    verdicts.push_back(verdict_of(res));
    if (untraced_s.size() == 1) first = std::move(res);
  } while (seconds_since(t_start) < budget);
  if (!opt.trace) r.peak_rss_mb = peak_rss_mb();
  Pins(opt).check(r, "verdict",
                  std::to_string(first.winner) + " " + first.stopped_by + " " +
                      std::to_string(first.rounds) + " " +
                      std::to_string(first.total_replicates));

  if (!opt.trace) {
    const auto pooled = bws::eval::Campaign(spec_of(0)).run(kCheckThreads);
    r.checks.expect(pooled.to_json() == first.to_json(),
                    "1-thread and 4-thread campaign reports are byte-equal");
    return;
  }

  // The traced run re-drives the same campaigns, in the same order, through
  // the rebuilt loop; each must reach its Campaign::run verdict.
  Tracer tracer;
  LoopTally tally;
  std::vector<double> traced_s;
  double replicates = 0.0, rounds = 0.0;
  const auto t_traced = Clock::now();
  do {
    const size_t i = traced_s.size() % verdicts.size();
    tracer.begin_request();
    const auto t0 = Clock::now();
    const Verdict v = rebuilt_campaign(spec_of(static_cast<int>(i)), tracer, tally);
    traced_s.push_back(seconds_since(t0));
    r.checks.expect(v == verdicts[i],
                    "rebuilt loop reaches Campaign::run's verdict");
    replicates += static_cast<double>(v.replicates);
    rounds += v.rounds;
  } while (seconds_since(t_traced) < opt.seconds / 2);
  const double campaigns = static_cast<double>(traced_s.size());
  r.layer["eval.replicates"] = replicates / campaigns;
  r.layer["eval.rounds"] = rounds / campaigns;
  r.layer["eval.cell_ms"] = tally.cell_ms / replicates;
  r.layer["stats.round_ms"] = tally.round_ms / rounds;
  r.layer["mean_eabs_pct"] =
      tally.eabs_sum / static_cast<double>(std::max<size_t>(tally.ok_cells, 1));
  // Compare like with like: the campaigns both runs covered.
  const size_t paired = std::min(untraced_s.size(), traced_s.size());
  untraced_s.resize(paired);
  traced_s.resize(paired);
  fill_overhead(r, untraced_s, traced_s);
  finish_trace(r, tracer, opt.trace_out);
}

}  // namespace perfbench
