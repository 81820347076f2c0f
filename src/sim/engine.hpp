// The paper's simulator (§VI-A): replays application traces (compute +
// communication events) on a cluster under a task placement, draining
// in-flight communications at rates given by a RateProvider.
//
// Two providers close the loop of the evaluation (§VI-B):
//   * sim::ModelRateProvider   -> predicted times T_p (the §V models);
//   * flowsim::FluidRateProvider -> "measured" times T_m (the substrate that
//     stands in for the physical clusters).
//
// Semantics:
//   * Blocking MPI_Send with rendezvous for messages >= eager_threshold:
//     the sender blocks until the transfer drains (plus it unblocks at drain
//     time; the receiver additionally pays the one-way latency).
//   * Messages below eager_threshold are buffered: the sender continues
//     immediately; the transfer starts once the receive is posted.
//   * Receives match by source, in posting order; kAnySource matches the
//     earliest posted pending send (the paper's MPI_ANY_SOURCE method).
//   * Barriers release when every task has arrived.
//
// Rate refresh is incremental and component-scoped: when a transfer starts
// or finishes, only the connected component(s) of the conflict structure it
// touches are re-solved, and untouched components keep their cached rates
// with lazily advanced byte counts. Dirty components are not solved
// mid-event but at the next *flush point* (the top of the event loop, or
// just before a barrier cost advances the clock) — the clock cannot move in
// between, so deferral is unobservable, and it batches all the components a
// same-time event cascade touched into one multi-component solve. That batch
// is what EngineConfig::solve fans out: SolveMode::kParallel computes each
// component's rates on a shared util::ThreadPool (components are disjoint by
// construction, and providers are const-safe), then commits them
// sequentially in component-id order, so completion times are bit-identical
// to kSerial at any thread count. The event loop itself runs on the shared
// event-core (core::EventQueue): predicted finish times and compute wake-ups
// are indexed heap entries, re-keyed in O(log n) when a component re-solve
// changes a prediction, so finding the next event never scans the active
// set. EngineConfig::cross_check arms the oracle that re-derives all of this
// the slow way at every flush and event (docs/PERFORMANCE.md, "Invariants");
// bench/engine_scaling.cpp measures the speedups.
#pragma once

#include <string>
#include <vector>

#include "flowsim/fluid_network.hpp"
#include "sim/events.hpp"
#include "sim/scenario.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"

namespace bwshare::util {
class ThreadPool;
}

namespace bwshare::sim {

class SolveMemo;

/// Where the per-component rate solves of a flush run
/// (docs/PERFORMANCE.md, "The parallel component solver").
enum class SolveMode {
  /// One component after another on the calling thread.
  kSerial,
  /// Each component's rates are computed as an independent task on a
  /// util::ThreadPool (components are disjoint, providers const-safe), then
  /// committed sequentially in component-id order. Bit-identical to kSerial
  /// at any thread count — which EngineConfig::cross_check asserts by
  /// re-solving every component serially on the calling thread.
  kParallel,
};

struct EngineConfig {
  /// Messages at least this long use rendezvous (sender blocks).
  double eager_threshold = 64.0 * 1024.0;
  /// Extra cost charged to every barrier release.
  double barrier_cost = 0.0;
  /// Abort if simulated time exceeds this (deadlock safety net).
  double max_time = 1e9;
  /// Equivalence oracle for tests and benchmarks: at every flush, re-solve
  /// each alive component fresh on the calling thread (bypassing the pool
  /// and the solve memo) and require its committed rates bitwise; re-solve
  /// the whole active set and require agreement within 1e-9 relative; and
  /// re-derive every queue key, next-event time, completing transfer and
  /// compute wake by linear scan. Throws bwshare::Error on the first
  /// divergence. Results are bit-identical with or without it.
  bool cross_check = false;
  /// Where a flush runs its per-component solves.
  SolveMode solve = SolveMode::kSerial;
  /// Pool for SolveMode::kParallel (not owned; must outlive the
  /// simulation). Inject one shared pool per process so concurrent engines
  /// (e.g. sweep cells) don't oversubscribe the machine. When null and
  /// solve == kParallel, the engine lazily creates a private pool with
  /// `solve_threads` workers.
  util::ThreadPool* solve_pool = nullptr;
  /// Worker count for the lazily created private pool (0 = hardware).
  /// Ignored when `solve_pool` is injected.
  int solve_threads = 0;
  /// Cross-query component-solution memo (sim/solve_memo.hpp; not owned,
  /// must outlive the simulation). When set, every component rate solve
  /// first consults the memo — a hit returns the cached bits, which the
  /// provider purity contract guarantees equal a fresh solve — and every
  /// miss stages its solution for the owner to publish. Null (the default)
  /// means solve fresh always; results are bit-identical either way, the
  /// memo only changes how much work a replay does.
  SolveMemo* solve_memo = nullptr;
};

/// One completed communication, as the simulator saw it.
struct CommRecord {
  TaskId src_task = 0;
  TaskId dst_task = 0;
  topo::NodeId src_node = 0;
  topo::NodeId dst_node = 0;
  double bytes = 0.0;
  double send_post = 0.0;   // when the sender entered MPI_Send
  double recv_post = 0.0;   // when the receiver posted the receive
  double start = 0.0;       // when the transfer began draining
  double finish = 0.0;      // when the receiver unblocked
  /// Observed penalty: duration / unconflicted reference duration. For an
  /// aborted record it covers the partial drain only.
  double penalty = 1.0;
  /// An injected background flow (Scenario::background): src_task/dst_task
  /// are -1, no task ever blocked on it.
  bool background = false;
  /// Cut short by a node failure (ChurnKind::kFail): `finish` is the abort
  /// time and the bytes only partially moved.
  bool aborted = false;

  [[nodiscard]] double duration() const { return finish - start; }
  /// Time the *sender* was blocked in MPI_Send (the paper's measured T_i).
  double sender_time = 0.0;
};

struct TaskStats {
  double finish_time = 0.0;
  double compute_seconds = 0.0;
  double send_blocked_seconds = 0.0;  // the paper's per-task S_m / S_p sum
  double recv_blocked_seconds = 0.0;
  double barrier_wait_seconds = 0.0;
  int sends = 0;
  int recvs = 0;
};

struct SimResult {
  double makespan = 0.0;
  std::vector<TaskStats> tasks;
  std::vector<CommRecord> comms;
  /// Transfers cut short by a ChurnKind::kFail (measured job + background).
  size_t aborted_comms = 0;
  /// Background flows admitted into the active set.
  size_t background_comms = 0;
  /// Background flows dropped because an endpoint node was down.
  size_t background_skipped = 0;

  /// Mean observed penalty over the measured job's completed records;
  /// background and aborted records are excluded.
  [[nodiscard]] double average_penalty() const;
  /// Sum of sender-side communication times for one task (the quantity the
  /// paper aggregates per task for the HPL evaluation, §VI-B).
  [[nodiscard]] double task_comm_time(TaskId t) const;
};

/// Exact equality over everything a replay derives: makespan, the scenario
/// counters, and every per-comm / per-task field, compared bit for bit
/// (no epsilon). The predicate behind the engine's mode-equivalence suites
/// and the serving layer's conformance contract (docs/SERVING.md); the
/// gtest twin with per-field diagnostics lives in
/// tests/common/result_expect.hpp.
[[nodiscard]] bool bit_identical(const SimResult& a, const SimResult& b);

/// Run `trace` on `cluster` with tasks placed by `placement`, rates from
/// `provider`. Throws bwshare::Error on deadlock or malformed traces.
[[nodiscard]] SimResult run_simulation(const AppTrace& trace,
                                       const topo::ClusterSpec& cluster,
                                       const Placement& placement,
                                       const flowsim::RateProvider& provider,
                                       const EngineConfig& config = {});

/// Same replay under a dynamic-cluster `scenario` (sim/scenario.hpp):
/// membership churn, background cross-traffic, multi-job barriers. An empty
/// scenario is bit-identical to the overload above.
[[nodiscard]] SimResult run_simulation(const AppTrace& trace,
                                       const topo::ClusterSpec& cluster,
                                       const Placement& placement,
                                       const flowsim::RateProvider& provider,
                                       const Scenario& scenario,
                                       const EngineConfig& config = {});

}  // namespace bwshare::sim
