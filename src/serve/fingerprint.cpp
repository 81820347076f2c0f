#include "serve/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "graph/generator.hpp"
#include "graph/scheme_parser.hpp"
#include "models/registry.hpp"
#include "sim/events.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace bwshare::serve {

namespace {

/// Absorb the resolved workload: pure event content, per task in task
/// order. Labels, file paths and scheme names are display-only and
/// deliberately absent.
void mix_trace(util::StructuralHash& h, const sim::AppTrace& trace) {
  h.mix_i64(trace.num_tasks());
  for (sim::TaskId t = 0; t < trace.num_tasks(); ++t) {
    const sim::TaskProgram& prog = trace.program(t);
    h.mix_u64(prog.size());
    for (const sim::Event& e : prog) {
      h.mix_i64(static_cast<int64_t>(e.kind));
      h.mix_i64(e.peer);
      h.mix_f64(e.bytes);
      h.mix_f64(e.seconds);
    }
  }
}

}  // namespace

CanonicalQuery canonicalize(const Query& q) {
  CanonicalQuery cq;
  cq.id = q.id;

  const int workloads = (q.scheme.empty() ? 0 : 1) +
                        (q.scheme_text.empty() ? 0 : 1) +
                        (q.trace.empty() ? 0 : 1) +
                        (q.trace_text.empty() ? 0 : 1);
  BWS_CHECK(workloads == 1,
            "query needs exactly one workload field: scheme, scheme_text, "
            "trace or trace_text");

  cq.tech = topo::network_tech_from_string(q.network);
  // Resolve "network" to the interconnect's own model *before* hashing, so
  // {"model":"network"} and the explicit name are the same query.
  cq.model = (q.model == "network" || q.model.empty()
                  ? models::model_for(cq.tech)
                  : models::make_model(q.model))
                 ->name();

  BWS_CHECK(q.nodes >= 1 && q.nodes <= 1000000,
            strformat("query: nodes must be in [1, 1000000], got %d",
                      q.nodes));
  BWS_CHECK(q.cores >= 1 && q.cores <= 1000000,
            strformat("query: cores must be in [1, 1000000], got %d",
                      q.cores));
  cq.cores = q.cores;
  cq.policy = sim::scheduling_policy_from_string(q.schedule);
  BWS_CHECK(q.churn >= 0.0 && std::isfinite(q.churn),
            strformat("query: churn must be finite and >= 0, got %g",
                      q.churn));
  BWS_CHECK(q.background >= 0.0 && std::isfinite(q.background),
            strformat("query: background must be finite and >= 0, got %g",
                      q.background));
  cq.churn = q.churn;
  cq.background = q.background;
  cq.seed = q.seed;

  // Resolve the workload to a trace. Schemes — builtin, file, generator or
  // inline — are lifted through sim::trace_from_scheme, so every served
  // query replays through the one run_simulation path the conformance suite
  // compares against; the cluster grows to fit a scheme, mirroring
  // eval::run_cell.
  if (!q.trace.empty()) {
    cq.workload = eval::resolve_trace_workload(q.trace);
    cq.nodes = q.nodes;
  } else if (!q.trace_text.empty()) {
    auto trace = sim::read_trace(q.trace_text);
    trace.validate();
    cq.workload.key = "trace_text";
    cq.workload.trace =
        std::make_shared<const sim::AppTrace>(std::move(trace));
    cq.nodes = q.nodes;
  } else {
    graph::CommGraph graph;
    if (!q.scheme.empty()) {
      const auto w = eval::resolve_scheme_workload(q.scheme);
      graph = w.generator ? graph::generate_scheme(*w.generator, q.seed)
                          : *w.scheme;
      cq.workload.key = q.scheme;
    } else {
      auto parsed = graph::parse_scheme(q.scheme_text);
      graph = std::move(parsed.graph);
      cq.workload.key =
          parsed.name.empty() ? std::string("scheme_text") : parsed.name;
    }
    BWS_CHECK(graph.size() > 0, "query: scheme has no communications");
    cq.nodes = std::max(q.nodes, graph.num_nodes());
    cq.workload.trace = std::make_shared<const sim::AppTrace>(
        sim::trace_from_scheme(graph));
  }

  // The seed only reaches the replay through random placement and the
  // scenario scripts (a generator expansion is already baked into the trace
  // content above); otherwise canonicalize it away.
  cq.seed_live = cq.policy == sim::SchedulingPolicy::kRandom ||
                 cq.churn > 0.0 || cq.background > 0.0;

  util::StructuralHash h;
  h.mix_str("bwshare.serve.query.v1");
  mix_trace(h, *cq.workload.trace);
  h.mix_i64(static_cast<int64_t>(cq.tech));
  h.mix_str(cq.model);
  h.mix_i64(cq.nodes);
  h.mix_i64(cq.cores);
  h.mix_i64(static_cast<int64_t>(cq.policy));
  h.mix_f64(cq.churn);
  h.mix_f64(cq.background);
  h.mix_u64(cq.seed_live ? cq.seed : 0);
  // The engine semantics every served replay runs under (the defaults — no
  // knob exposes them yet). Hashed so exposing one later cannot alias onto
  // fingerprints minted before. Execution strategy (solve mode, pool,
  // cross_check, solve memo) is excluded on purpose: bit-identical by the
  // engine contract.
  const sim::EngineConfig engine;
  h.mix_f64(engine.eager_threshold);
  h.mix_f64(engine.barrier_cost);
  h.mix_f64(engine.max_time);
  cq.fingerprint = h.digest();
  return cq;
}

uint64_t hash_sim_result(const sim::SimResult& r) {
  util::StructuralHash h;
  h.mix_f64(r.makespan);
  h.mix_u64(r.aborted_comms);
  h.mix_u64(r.background_comms);
  h.mix_u64(r.background_skipped);
  h.mix_u64(r.comms.size());
  for (const sim::CommRecord& c : r.comms) {
    h.mix_i64(c.src_task);
    h.mix_i64(c.dst_task);
    h.mix_i64(c.src_node);
    h.mix_i64(c.dst_node);
    h.mix_f64(c.bytes);
    h.mix_f64(c.send_post);
    h.mix_f64(c.recv_post);
    h.mix_f64(c.start);
    h.mix_f64(c.finish);
    h.mix_f64(c.penalty);
    h.mix_f64(c.sender_time);
    h.mix_bool(c.background);
    h.mix_bool(c.aborted);
  }
  h.mix_u64(r.tasks.size());
  for (const sim::TaskStats& t : r.tasks) {
    h.mix_f64(t.finish_time);
    h.mix_f64(t.compute_seconds);
    h.mix_f64(t.send_blocked_seconds);
    h.mix_f64(t.recv_blocked_seconds);
    h.mix_f64(t.barrier_wait_seconds);
    h.mix_i64(t.sends);
    h.mix_i64(t.recvs);
  }
  return h.digest();
}

}  // namespace bwshare::serve
