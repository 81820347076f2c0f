// Engine event-loop scaling: the incremental component-scoped rate refresh
// on the event-core finish-time heap, with serial vs parallel component
// solving (sim::SolveMode, the ThreadPool-backed flush —
// docs/PERFORMANCE.md).
//
// Scenario: a sparse schedule on N nodes — per round, a seeded random
// perfect matching where every node either sends or receives exactly one
// rendezvous message, rounds separated by barriers. The conflict graph of
// each round is N/2 disjoint pairs, the regime where the component-scoped
// solver touches O(1) communications per event — and where each round's
// release flushes N/2 disjoint dirty components at once, the widest batch
// the parallel solver can fan out.
//
// A --churn axis (events/s, default 0) scripts seeded node join/leave/fail
// events onto every replay (sim/scenario.hpp): failures abort in-flight
// transfers and dirty their components, so churned rows measure the solver
// under membership events instead of assuming the static-cluster numbers
// transfer.
//
// Emits BENCH_engine.json (schema_version 6, docs/PERFORMANCE.md) so the
// repo keeps a machine-readable perf trajectory: one row per
// provider x node count x churn rate x solve mode, each echoing the RNG
// seed and the thread count it measured so a baseline is reproducible from
// the file alone. Serial rows also carry allocation counters
// (util::alloc_count()): alloc_total over the timed replay, and
// alloc_per_event — the allocation count delta between the R-round replay
// and a warmed 1-round twin, divided by the completed-comm delta. With the
// fluid provider the steady-state event loop is allocation-free, so the
// per-event figure must stay ~0 (CI gates it); model providers (gige) go
// through the allocating rates() fallback and are reported but exempt.
// Every row up to --max-crosscheck-nodes also replays the schedule with
// EngineConfig::cross_check armed — per-component fresh re-solves, the
// whole-set solve, and the heap-vs-scan event and wake-order checks — which
// throws on any divergence and must be bit-identical to the timed replay.
// The bench exits non-zero if a cross-check replay or any parallel row is
// not bit-identical to its serial twin.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/alloc_counter.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace bwshare;

sim::AppTrace sparse_matching_trace(int nodes, int rounds, double bytes,
                                    uint64_t seed) {
  sim::AppTrace trace(nodes);
  Rng rng(seed);
  std::vector<int> order(static_cast<size_t>(nodes));
  std::iota(order.begin(), order.end(), 0);
  for (int r = 0; r < rounds; ++r) {
    // Seeded Fisher-Yates: a fresh perfect matching every round.
    for (int i = nodes - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.below(static_cast<uint64_t>(i + 1)));
      std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
    }
    for (int p = 0; p + 1 < nodes; p += 2) {
      const sim::TaskId src = order[static_cast<size_t>(p)];
      const sim::TaskId dst = order[static_cast<size_t>(p + 1)];
      trace.push(src, sim::Event::send(dst, bytes));
      trace.push(dst, sim::Event::recv(src, bytes));
    }
    trace.push_barrier_all();
  }
  return trace;
}

struct Run {
  double wall_ms = 0.0;
  uint64_t allocs = 0;  // global operator-new count during the replay
  sim::SimResult result;
};

Run timed_run(const sim::AppTrace& trace, const topo::ClusterSpec& cluster,
              const sim::Placement& placement,
              const flowsim::RateProvider& provider,
              const sim::Scenario& scenario,
              sim::SolveMode solve = sim::SolveMode::kSerial,
              util::ThreadPool* pool = nullptr, bool cross_check = false) {
  Run out;
  const uint64_t allocs0 = util::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  sim::EngineConfig cfg;
  cfg.cross_check = cross_check;
  cfg.solve = solve;
  cfg.solve_pool = pool;
  out.result =
      sim::run_simulation(trace, cluster, placement, provider, scenario, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  out.allocs = util::alloc_count() - allocs0;
  out.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  return out;
}

/// Max relative difference over per-communication finish times + makespan.
double max_rel_err(const sim::SimResult& a, const sim::SimResult& b) {
  BWS_CHECK(a.comms.size() == b.comms.size(),
            "engine configurations produced different communication counts");
  double worst = 0.0;
  const auto rel = [](double x, double y) {
    const double scale = std::max(std::abs(x), std::abs(y));
    return scale == 0.0 ? 0.0 : std::abs(x - y) / scale;
  };
  for (size_t i = 0; i < a.comms.size(); ++i)
    worst = std::max(worst, rel(a.comms[i].finish, b.comms[i].finish));
  worst = std::max(worst, rel(a.makespan, b.makespan));
  return worst;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  return strformat("%.9g", v);
}

void usage(const char* prog) {
  std::cout
      << "usage: " << prog << " [options]\n"
      << "  --nodes N,N,...       node counts (default 64,128,256,512,1024,"
         "2048,4096,8192,16384,32768,65536)\n"
      << "  --rounds R            matching rounds per scenario (default 3)\n"
      << "  --bytes B             message size in bytes (default 4000000)\n"
      << "  --seed S              matching seed (default 1)\n"
      << "  --churn LIST          membership-churn rates in events/s of\n"
      << "                        simulated time (default 0; each nonzero\n"
      << "                        rate adds a row set replaying under a\n"
      << "                        seeded join/leave/fail script)\n"
      << "  --providers LIST      fluid and/or gige (default fluid)\n"
      << "  --solve LIST          serial and/or parallel component solving\n"
      << "                        (default serial,parallel; parallel rows\n"
      << "                        must be bit-identical to their serial\n"
      << "                        twin)\n"
      << "  --threads T           pool size for parallel rows (default 0 =\n"
      << "                        hardware threads)\n"
      << "  --max-crosscheck-nodes N\n"
      << "                        largest size also replayed with the\n"
      << "                        cross_check oracle armed (default 1024;\n"
      << "                        its per-event scans are quadratic)\n"
      << "  --out PATH            JSON output (default BENCH_engine.json)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.get_bool("help", false)) {
    usage(args.program().c_str());
    return 0;
  }
  const auto unknown = args.unknown_flags(
      {"nodes", "rounds", "bytes", "seed", "churn", "providers", "solve",
       "threads", "max-crosscheck-nodes", "out", "help"});
  if (!unknown.empty()) {
    std::cerr << "error: unknown flag --" << unknown.front() << "\n";
    usage(args.program().c_str());
    return 2;
  }

  const std::string nodes_list = args.get(
      "nodes", "64,128,256,512,1024,2048,4096,8192,16384,32768,65536");
  const int rounds = static_cast<int>(args.get_int("rounds", 3));
  const double bytes = args.get_double("bytes", 4e6);
  const uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 1));
  const long max_crosscheck = args.get_int("max-crosscheck-nodes", 1024);
  const std::string out_path = args.get("out", "BENCH_engine.json");
  const std::string providers = args.get("providers", "fluid");
  const std::string solves = args.get("solve", "serial,parallel");
  const int threads_flag = static_cast<int>(args.get_int("threads", 0));

  std::vector<int> sizes;
  for (const auto& tok : split(nodes_list, ','))
    sizes.push_back(static_cast<int>(parse_size(trim(tok))));
  std::vector<double> churn_rates;
  for (const auto& tok : split(args.get("churn", "0"), ',')) {
    char* end = nullptr;
    const std::string text{trim(tok)};
    const double rate = std::strtod(text.c_str(), &end);
    BWS_CHECK(end != text.c_str() && *end == '\0' && rate >= 0.0,
              "--churn expects comma-separated non-negative rates");
    churn_rates.push_back(rate);
  }
  std::vector<std::string> provider_names = split(providers, ',');
  bool with_serial = false;
  bool with_parallel = false;
  for (const auto& s : split(solves, ',')) {
    if (trim(s) == "serial") {
      with_serial = true;
    } else if (trim(s) == "parallel") {
      with_parallel = true;
    } else {
      std::cerr << "error: unknown solve mode '" << trim(s) << "'\n";
      return 2;
    }
  }

  // One shared pool for every parallel row — the injection pattern the
  // engine documents for concurrent replays (sweep cells).
  const int pool_threads =
      threads_flag > 0 ? threads_flag : util::ThreadPool::hardware_threads();
  std::unique_ptr<util::ThreadPool> pool;
  if (with_parallel) pool = std::make_unique<util::ThreadPool>(pool_threads);

  const auto cal = topo::gigabit_ethernet_calibration();
  std::string rows;
  bool all_equivalent = true;

  // One emitted row per provider x node count x churn rate x solve mode.
  struct Row {
    const char* solve = "serial";
    int threads = 1;
    double churn = 0.0;
    size_t aborted = 0;
    double makespan = 0.0;
    double wall_ms = 0.0;
    double solve_rel_err = -1.0;     // parallel vs serial twin; < 0 -> null
    double solve_speedup = -1.0;     // serial_ms / parallel_ms; < 0 -> null
    double alloc_total = -1.0;       // operator-new count; < 0 -> null
    double alloc_per_event = -1.0;   // steady-state allocs/comm; < 0 -> null
    bool crosscheck = false;
  };

  std::printf("%-8s %-7s %-6s %-8s %10s %13s %13s %11s %8s  %s\n",
              "provider", "nodes", "churn", "solve", "wall_ms",
              "solve_rel_err", "solve_speedup", "alloc_total", "alloc/ev",
              "crosscheck");
  for (const auto& pname : provider_names) {
    const flowsim::FluidRateProvider fluid(cal);
    std::shared_ptr<const models::PenaltyModel> model;
    std::unique_ptr<sim::ModelRateProvider> model_provider;
    const flowsim::RateProvider* provider = &fluid;
    if (pname == "gige") {
      model = models::make_model("gige");
      model_provider = std::make_unique<sim::ModelRateProvider>(model, cal);
      provider = model_provider.get();
    } else {
      BWS_CHECK(pname == "fluid", "unknown provider '" + pname + "'");
    }

    for (const int n : sizes) {
      BWS_CHECK(n >= 2, "node counts must be at least 2");
      const auto trace = sparse_matching_trace(n, rounds, bytes, seed);
      // One-round twin of the same schedule: the (R-round - 1-round)
      // allocation delta cancels per-replay setup costs (engine state,
      // scratch growth), leaving the steady-state per-event count.
      const auto trace1 = sparse_matching_trace(n, 1, bytes, seed);
      const auto cluster = topo::ClusterSpec::uniform("bench", n, 1, cal);
      const auto placement = sim::make_placement(
          sim::SchedulingPolicy::kRoundRobinNode, cluster, n);
      const bool with_crosscheck = n <= max_crosscheck;
      std::vector<Row> cell_rows;

      for (const double churn : churn_rates) {
        sim::Scenario scenario;
        if (churn > 0.0) {
          graph::ChurnSpec churn_spec;
          churn_spec.rate = churn;
          churn_spec.nodes = n;
          scenario.churn = graph::generate_churn(churn_spec, seed);
        }

        // Replay `row`'s run with the cross_check oracle armed: it throws
        // on any divergence inside the engine, and its result must be
        // bit-identical to the timed replay it shadows.
        const auto cross_check = [&](Row& row, const Run& timed,
                                     sim::SolveMode solve) {
          if (!with_crosscheck) return;
          const Run checked =
              timed_run(trace, cluster, placement, *provider, scenario, solve,
                        pool.get(), /*cross_check=*/true);
          if (!sim::bit_identical(timed.result, checked.result))
            all_equivalent = false;
          row.crosscheck = true;
        };

        // The serial run doubles as the parallel rows' oracle baseline, so
        // it runs whenever any solve mode is requested. Warm the
        // thread-local solve scratch/arena first, then measure the 1-round
        // twin so both it and the R-round replay run warm — their
        // allocation delta is then pure steady-state work.
        (void)timed_run(trace1, cluster, placement, *provider, scenario);
        const Run one =
            timed_run(trace1, cluster, placement, *provider, scenario);
        const Run serial =
            timed_run(trace, cluster, placement, *provider, scenario);
        if (with_serial) {
          Row row;
          row.churn = churn;
          row.aborted = serial.result.aborted_comms;
          row.makespan = serial.result.makespan;
          row.wall_ms = serial.wall_ms;
          row.alloc_total = static_cast<double>(serial.allocs);
          const double comm_delta =
              static_cast<double>(serial.result.comms.size()) -
              static_cast<double>(one.result.comms.size());
          if (comm_delta > 0.0)
            row.alloc_per_event = (static_cast<double>(serial.allocs) -
                                   static_cast<double>(one.allocs)) /
                                  comm_delta;
          cross_check(row, serial, sim::SolveMode::kSerial);
          cell_rows.push_back(row);
        }
        if (with_parallel) {
          const Run parallel =
              timed_run(trace, cluster, placement, *provider, scenario,
                        sim::SolveMode::kParallel, pool.get());
          Row row;
          row.solve = "parallel";
          row.threads = pool_threads;
          row.churn = churn;
          row.aborted = parallel.result.aborted_comms;
          row.makespan = parallel.result.makespan;
          row.wall_ms = parallel.wall_ms;
          row.solve_rel_err = max_rel_err(serial.result, parallel.result);
          if (row.solve_rel_err != 0.0) all_equivalent = false;
          row.solve_speedup = parallel.wall_ms > 0.0
                                  ? serial.wall_ms / parallel.wall_ms
                                  : -1.0;
          cross_check(row, parallel, sim::SolveMode::kParallel);
          cell_rows.push_back(row);
        }
      }  // churn axis

      for (const Row& row : cell_rows) {
        std::printf(
            "%-8s %-7d %-6s %-8s %10.3f %13s %13s %11s %8s  %s\n",
            pname.c_str(), n, strformat("%g", row.churn).c_str(), row.solve,
            row.wall_ms,
            row.solve_rel_err >= 0.0
                ? strformat("%.3g", row.solve_rel_err).c_str()
                : "-",
            row.solve_speedup >= 0.0
                ? strformat("%.2fx", row.solve_speedup).c_str()
                : "-",
            row.alloc_total >= 0.0
                ? strformat("%.0f", row.alloc_total).c_str()
                : "-",
            row.alloc_per_event >= 0.0
                ? strformat("%.3g", row.alloc_per_event).c_str()
                : "-",
            row.crosscheck ? "ok" : "skipped");
        std::fflush(stdout);

        if (!rows.empty()) rows += ",";
        rows += strformat(
            "\n    {\"provider\": \"%s\", \"nodes\": %d, "
            "\"comms_per_round\": %d, \"rounds\": %d, \"seed\": %llu, "
            "\"churn_rate\": %s, \"aborted\": %zu, "
            "\"solve\": \"%s\", \"threads\": %d, "
            "\"makespan\": %s, \"wall_ms\": %s, "
            "\"solve_rel_err\": %s, \"solve_speedup\": %s, "
            "\"alloc_total\": %s, \"alloc_per_event\": %s, "
            "\"crosscheck\": %s}",
            pname.c_str(), n, n / 2, rounds,
            static_cast<unsigned long long>(seed),
            json_num(row.churn).c_str(), row.aborted, row.solve, row.threads,
            json_num(row.makespan).c_str(), json_num(row.wall_ms).c_str(),
            row.solve_rel_err >= 0.0 ? json_num(row.solve_rel_err).c_str()
                                     : "null",
            row.solve_speedup >= 0.0 ? json_num(row.solve_speedup).c_str()
                                     : "null",
            row.alloc_total >= 0.0 ? json_num(row.alloc_total).c_str()
                                   : "null",
            row.alloc_per_event >= 0.0 ? json_num(row.alloc_per_event).c_str()
                                       : "null",
            row.crosscheck ? "true" : "false");
      }
    }
  }

  std::string nodes_json;
  for (const int n : sizes)
    nodes_json += strformat(nodes_json.empty() ? "%d" : ", %d", n);
  std::string churn_json;
  for (const double churn : churn_rates) {
    if (!churn_json.empty()) churn_json += ", ";
    churn_json += json_num(churn);
  }
  std::string providers_json;
  for (const auto& pname : provider_names) {
    if (!providers_json.empty()) providers_json += ", ";
    providers_json += "\"" + pname + "\"";
  }
  std::string solves_json;
  if (with_serial) solves_json += "\"serial\"";
  if (with_parallel)
    solves_json += solves_json.empty() ? "\"parallel\"" : ", \"parallel\"";

  const std::string json = strformat(
      "{\n  \"bench\": \"engine_scaling\",\n  \"schema_version\": 6,\n"
      "  \"config\": {\"rounds\": %d, \"bytes\": %s, \"seed\": %llu, "
      "\"max_crosscheck_nodes\": %ld, \"nodes\": [%s], \"churn\": [%s], "
      "\"providers\": [%s], \"solves\": [%s], "
      "\"threads\": %d},\n  \"results\": [%s\n  ]\n}\n",
      rounds, json_num(bytes).c_str(),
      static_cast<unsigned long long>(seed), max_crosscheck,
      nodes_json.c_str(), churn_json.c_str(), providers_json.c_str(),
      solves_json.c_str(),
      with_parallel ? pool_threads : 1, rows.c_str());
  util::write_text_file(out_path, json);
  std::cout << "  [json written to " << out_path << "]\n";

  if (!all_equivalent) {
    std::cerr << "error: engine configurations diverged (a cross-check "
                 "replay or a parallel solve not bit-identical to its "
                 "serial twin)\n";
    return 1;
  }
  return 0;
}
