// Dynamic-cluster scenarios for sim::run_simulation: membership churn
// (join / leave / fail), background cross-traffic, and multi-job
// co-scheduling. A Scenario is plain data layered on the graph-level script
// types (graph/generator.hpp); the engine-side semantics are:
//
//   * kFail   — the node goes down and every in-flight transfer with an
//     endpoint on it ABORTS at the event time: partial bytes are kept in the
//     record (CommRecord::aborted), the endpoints unblock immediately, and
//     the dirtied conflict components re-solve at the next flush point.
//   * kLeave  — the node goes down but in-flight transfers DRAIN normally
//     (graceful departure). Down nodes stop admitting background flows.
//   * kJoin   — the node comes (back) up and admits background flows again.
//
//   Node state gates background-flow admission only: the measured job is a
//   transient-fault model — its tasks keep executing and its transfers keep
//   draining (or abort, on kFail) so the replay always terminates, and the
//   disruption shows up as aborted records and inflated completion times.
//
//   * Background flows are task-less transfers: they contend for nodes and
//     coupling keys like any member of the active set (so they join and
//     split conflict components), but nothing blocks on them and they are
//     excluded from average_penalty().
//
//   * job_of assigns each task to a job; barriers synchronize WITHIN a job
//     only, so N independently-traced jobs merged into one AppTrace
//     co-schedule on the shared cluster. sim/multijob.hpp builds such merged
//     replays and reports per-job interference.
//
// Script events are replayed on the engine's core::EventQueue keyed by
// (time, script order) — identical under every SolveMode and with
// EngineConfig::cross_check armed, which tests/sim/test_engine_churn.cpp
// enforces bit-exactly.
#pragma once

#include <vector>

#include "graph/generator.hpp"

namespace bwshare::sim {

struct Scenario {
  /// Membership script (absolute times; any order — the engine sorts by
  /// (time, index)).
  std::vector<graph::ChurnEvent> churn;
  /// Cross-traffic script (absolute times).
  std::vector<graph::BackgroundFlow> background;
  /// Nodes that start down (admit no background flows until a kJoin).
  std::vector<int> down_at_start;
  /// Per-task job id (empty = every task in job 0). Ids must be dense:
  /// every id in [0, max] occupied.
  std::vector<int> job_of;

  [[nodiscard]] bool empty() const {
    return churn.empty() && background.empty() && down_at_start.empty() &&
           job_of.empty();
  }

  /// Number of co-scheduled jobs (1 when job_of is empty).
  [[nodiscard]] int num_jobs() const;

  /// Check the scenario against the replay it will drive. Throws
  /// bwshare::Error on out-of-range nodes/times/bytes, a job_of that does
  /// not cover every task, or non-dense job ids.
  void validate(int num_tasks, int num_nodes) const;
};

}  // namespace bwshare::sim
