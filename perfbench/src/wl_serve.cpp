// serve-mix: one closed-loop client sends 200 batches of 8 JSON-line
// queries to one serve::QueryService with a 1-thread pool, through the
// wire protocol (parse_flat_json_object -> query_from_json -> query_batch
// -> response_to_json). The seeded stream mixes fresh queries, one-comm
// edits, repeats and in-batch duplicates over gige/myrinet/ib, so it
// exercises the result cache, the WarmStore and coalescing together.
#include <memory>

#include "generators.hpp"
#include "models/registry.hpp"
#include "serve/protocol.hpp"
#include "sim/rate_model.hpp"
#include "topo/cluster.hpp"
#include "util/alloc_counter.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bws = bwshare;

namespace {

constexpr int kBatches = 200;
// The timed service runs one solve thread: a batch fanned out over every
// core waits for its slowest thread, so on a shared host its latency
// measures the neighbours. A 4-thread service must answer the same bytes.
constexpr int kThreads = 1;
constexpr int kCheckThreads = 4;
// Batches whose replays the traced run re-drives through decorated
// providers (a bounded sample keeps the traced run short).
constexpr size_t kRedriveBatches = 40;

struct PassOutput {
  std::vector<std::string> lines;   // every response line, in order
  std::vector<double> batch_ms;     // client-side wall time per batch
  /// Every response, in order, when the caller asked to keep them; a
  /// client that drops them lets evicted results be freed as it goes.
  std::vector<bws::serve::Response> responses;
  bws::serve::ServiceStats stats;
  double comm_records = 0.0;
  uint64_t failed = 0;
};

/// One pass of the stream through a fresh service. Set-up (stream
/// generation and service construction) is timed into `setup_s`.
PassOutput run_pass(uint64_t seed, const bws::serve::ServiceConfig& cfg,
                    std::vector<double>* setup_s, Tracer* tracer,
                    bool keep_responses = false) {
  const auto t0 = Clock::now();
  const ServeStream stream = serve_stream(seed, kBatches);
  auto service = std::make_unique<bws::serve::QueryService>(cfg);
  if (setup_s != nullptr) setup_s->push_back(seconds_since(t0));

  PassOutput out;
  for (const auto& batch : stream.batches) {
    if (tracer != nullptr) tracer->begin_request();
    const auto b0 = Clock::now();
    std::vector<bws::serve::Query> queries;
    {
      Tracer::Scope span(tracer, "serve.protocol");
      for (const auto& line : batch) {
        queries.push_back(bws::serve::query_from_json(
            bws::serve::parse_flat_json_object(line)));
      }
    }
    std::vector<bws::serve::Response> responses;
    {
      Tracer::Scope span(tracer, "serve.query_batch");
      responses = service->query_batch(queries);
    }
    {
      Tracer::Scope span(tracer, "serve.protocol");
      for (const auto& resp : responses)
        out.lines.push_back(bws::serve::response_to_json(resp));
    }
    out.batch_ms.push_back(ms_between(b0, Clock::now()));
    for (auto& resp : responses) {
      if (resp.ok) {
        out.comm_records += static_cast<double>(
            resp.result->measured->comms.size() +
            resp.result->predicted->comms.size());
      } else {
        ++out.failed;
      }
      if (keep_responses) out.responses.push_back(std::move(resp));
    }
  }
  out.stats = service->stats();
  return out;
}

bws::serve::ServiceConfig service_config(int threads, bool verify) {
  bws::serve::ServiceConfig cfg;
  cfg.threads = threads;
  cfg.verify = verify;
  return cfg;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

void run_serve(const Options& opt, Report& r) {
  const auto cfg = service_config(kThreads, false);
  // Pass i serves stream mix_seed(seed, i) through a fresh service, so a
  // run's latency percentiles come from many distinct batches rather than
  // from one stream's few heaviest ones. Only pass 0's answers are kept.
  const auto stream_seed = [&](size_t i) { return mix_seed(opt.seed, i); };
  PassOutput first;
  std::vector<double> untraced_s;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto t_start = Clock::now();
  do {
    PassOutput pass =
        run_pass(stream_seed(untraced_s.size()), cfg, &r.setup_s, nullptr);
    untraced_s.push_back(sum(pass.batch_ms) / 1e3);
    if (!opt.trace) {
      r.batch_ms.insert(r.batch_ms.end(), pass.batch_ms.begin(),
                        pass.batch_ms.end());
      r.pass_s.push_back(untraced_s.back());
      r.timed_s += untraced_s.back();
      r.requests += pass.lines.size();
      r.failed_requests += pass.failed;
      r.comm_records += pass.comm_records;
    }
    if (untraced_s.size() == 1) first = std::move(pass);
  } while (seconds_since(t_start) < budget);
  if (!opt.trace) {
    r.peak_rss_mb = peak_rss_mb();
    r.batches_per_pass = kBatches;
  }

  if (!opt.trace) {
    // Output checks, untimed, on pass 0's stream: the verify oracle (every
    // memo hit re-solved, every warm replay re-run cold) and a 4-thread
    // service must both answer byte-identically to the 1-thread service.
    const auto verified = run_pass(stream_seed(0), service_config(kThreads, true),
                                   nullptr, nullptr);
    r.checks.expect(verified.failed == 0 && verified.lines == first.lines,
                    "serve verify pass answers identically");
    const auto pooled = run_pass(stream_seed(0),
                                 service_config(kCheckThreads, false), nullptr,
                                 nullptr);
    r.checks.expect(pooled.lines == first.lines,
                    "1-thread and 4-thread response lines are byte-equal");
    return;
  }

  // The traced passes serve the same streams in the same order.
  Tracer tracer;
  std::vector<double> traced_s;
  PassOutput traced;  // traced pass 0
  bws::serve::ServiceStats st;  // summed over the traced passes
  const auto t_traced = Clock::now();
  do {
    PassOutput pass = run_pass(stream_seed(traced_s.size()), cfg, nullptr,
                               &tracer, traced_s.empty());
    traced_s.push_back(sum(pass.batch_ms) / 1e3);
    st.queries += pass.stats.queries;
    st.cache_hits += pass.stats.cache_hits;
    st.coalesced += pass.stats.coalesced;
    st.warm_replays += pass.stats.warm_replays;
    st.solve_hits += pass.stats.solve_hits;
    st.solve_misses += pass.stats.solve_misses;
    st.result_evictions += pass.stats.result_evictions;
    st.solve_evictions += pass.stats.solve_evictions;
    if (traced_s.size() == 1) traced = std::move(pass);
  } while (seconds_since(t_traced) < opt.seconds / 2);
  r.checks.expect(traced.lines == first.lines,
                  "traced pass answers byte-identically");

  const double passes = static_cast<double>(traced_s.size());
  const double queries = static_cast<double>(st.queries);
  r.layer["serve.cache_hit_ratio"] = static_cast<double>(st.cache_hits) / queries;
  r.layer["serve.coalesced_ratio"] = static_cast<double>(st.coalesced) / queries;
  r.layer["serve.warm_ratio"] = static_cast<double>(st.warm_replays) / queries;
  r.layer["serve.solve_hit_ratio"] =
      static_cast<double>(st.solve_hits) /
      static_cast<double>(std::max<uint64_t>(st.solve_hits + st.solve_misses, 1));
  r.layer["serve.result_evictions"] =
      static_cast<double>(st.result_evictions) / passes;
  r.layer["serve.solve_evictions"] =
      static_cast<double>(st.solve_evictions) / passes;
  double eabs = 0.0;
  size_t answered = 0;
  for (const auto& resp : traced.responses) {
    if (!resp.ok) continue;
    eabs += resp.result->cell.eabs_pct;
    ++answered;
  }
  r.layer["mean_eabs_pct"] = eabs / static_cast<double>(std::max<size_t>(answered, 1));

  // Side computations on the first kRedriveBatches batches, outside the
  // timed batches: canonicalize every query, and replay every query that
  // ran a replay (cold or warm) through decorated providers, which must
  // reproduce the served results bit for bit.
  const ServeStream stream = serve_stream(stream_seed(0), kBatches);
  TimingProvider::Totals fluid_totals, model_totals;
  ReplayTally tally;
  size_t resp_index = 0;
  for (size_t b = 0; b < kRedriveBatches; ++b) {
    tracer.begin_request();
    ++tally.ops;
    for (const auto& line : stream.batches[b]) {
      const auto q = bws::serve::query_from_json(
          bws::serve::parse_flat_json_object(line));
      bws::serve::CanonicalQuery cq;
      {
        Tracer::Scope span(&tracer, "serve.canonicalize");
        cq = bws::serve::canonicalize(q);
      }
      const auto& resp = traced.responses[resp_index++];
      if (!resp.ok) continue;
      if (resp.source != bws::serve::Source::kCold &&
          resp.source != bws::serve::Source::kWarm)
        continue;
      const auto cluster = bws::topo::ClusterSpec::uniform(
          "sweep", cq.nodes, cq.cores, bws::topo::calibration_for(cq.tech));
      const auto placement = bws::sim::make_placement(
          cq.policy, cluster, cq.workload.trace->num_tasks(), cq.seed);
      const bws::flowsim::FluidRateProvider fluid_inner(cluster.network());
      const bws::sim::ModelRateProvider model_inner(
          bws::models::make_model(cq.model), cluster.network());
      const TimingProvider fluid(fluid_inner), model(model_inner);
      for (const auto* side : {&fluid, &model}) {
        const auto& expected = side == &fluid ? *resp.result->measured
                                              : *resp.result->predicted;
        const uint64_t a0 = bws::util::alloc_count();
        const auto t0 = Clock::now();
        bws::sim::SimResult res;
        {
          Tracer::Scope span(&tracer, "sim.run_simulation");
          res = bws::sim::run_simulation(*cq.workload.trace, cluster,
                                         placement, *side);
        }
        tally.replay_ms += seconds_since(t0) * 1e3;
        tally.allocs += static_cast<double>(bws::util::alloc_count() - a0);
        tally.comms += static_cast<double>(res.comms.size());
        r.checks.expect(bws::sim::bit_identical(res, expected),
                        "re-driven replay reproduces the served result");
      }
      fluid_totals += fluid.totals();
      model_totals += model.totals();
    }
  }
  const auto totals = tracer.totals();
  const auto total_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  r.layer["serve.protocol_ms"] = total_ms("serve.protocol") / (passes * kBatches);
  r.layer["serve.batch_ms"] = total_ms("serve.query_batch") / (passes * kBatches);
  r.layer["serve.canonicalize_ms"] =
      total_ms("serve.canonicalize") / static_cast<double>(kRedriveBatches);
  fill_replay_layers(r, tally, fluid_totals, model_totals);
  fill_overhead(r, untraced_s, traced_s);
  finish_trace(r, tracer, opt.trace_out);
}

}  // namespace perfbench
