// Shared fuzz machinery for the engine equivalence suites
// (test_engine_incremental.cpp and test_engine_queue.cpp: the cross_check
// oracle; test_engine_parallel.cpp: parallel vs serial solve;
// test_engine_churn.cpp: dynamic-cluster scenarios). All compare whole
// replays bit-for-bit, and all want the same churning workload: staggered
// hotspot fan-ins force mid-flight re-predictions in both directions (joins
// shrink rates, completions grow them), mixed with eager and rendezvous
// sizes, zero-length computes and barriers.
#pragma once

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/result_expect.hpp"
#include "graph/generator.hpp"
#include "sim/engine.hpp"
#include "sim/events.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {

/// Staggered trace with heavy prediction churn: rounds of hotspot fan-ins
/// (everyone funnels into a rotating sink) mixed with random pairs, eager
/// and rendezvous sizes, zero-length and short computes, barriers.
inline AppTrace churn_trace(uint64_t seed, int tasks) {
  Rng rng(seed * 9176959ULL + 11);
  AppTrace trace(tasks);
  const int rounds = 2 + static_cast<int>(rng.below(3));
  for (int round = 0; round < rounds; ++round) {
    const TaskId sink = static_cast<TaskId>(rng.below(static_cast<uint64_t>(tasks)));
    for (TaskId src = 0; src < tasks; ++src) {
      if (src == sink) continue;
      // The fan-in: staggered joins shrink rates (finish times re-predict
      // later); each completion restores them (re-predict earlier).
      const double bytes = rng.uniform() < 0.25 ? 2e3 : rng.uniform(3e5, 5e6);
      trace.push(sink, Event::irecv(src, bytes));
      if (rng.uniform() < 0.4)
        trace.push(src, Event::compute(rng.uniform(0.0, 0.01)));
      if (rng.uniform() < 0.5) {
        trace.push(src, Event::isend(sink, bytes));
        trace.push(src, Event::wait_all());
      } else {
        trace.push(src, Event::send(sink, bytes));
      }
    }
    trace.push(sink, Event::wait_all());
    // Extra cross traffic so several components churn at once.
    for (TaskId src = 0; src < tasks; ++src) {
      if (rng.uniform() < 0.5) continue;
      TaskId dst = static_cast<TaskId>(rng.below(static_cast<uint64_t>(tasks)));
      if (dst == src) dst = (dst + 1) % tasks;
      const double bytes = rng.uniform(1e5, 2e6);
      trace.push(dst, Event::irecv(src, bytes));
      trace.push(src, Event::isend(dst, bytes));
      trace.push(src, Event::wait_all());
    }
    for (TaskId t = 0; t < tasks; ++t) {
      if (rng.uniform() < 0.3)
        trace.push(t, Event::compute(rng.uniform() < 0.3
                                         ? 0.0
                                         : rng.uniform(0.0, 0.02)));
      trace.push(t, Event::wait_all());
    }
    trace.push_barrier_all();
  }
  return trace;
}

/// Per round: a seeded random perfect matching of rendezvous messages,
/// rounds separated by barriers — the engine_scaling bench scenario,
/// shrunk. Fresh pairings every round exercise slot/component/match-queue
/// reuse across rounds; the pairs are disjoint and equal-sized, so each
/// round's receivers wake at one instant (the widest wake batch).
inline AppTrace matching_trace(int nodes, int rounds, uint64_t seed,
                               double bytes = 4e6,
                               bool settle_after_barrier = false) {
  AppTrace trace(nodes);
  Rng rng(seed);
  std::vector<int> order(static_cast<size_t>(nodes));
  std::iota(order.begin(), order.end(), 0);
  for (int r = 0; r < rounds; ++r) {
    for (int i = nodes - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.below(static_cast<uint64_t>(i + 1)));
      std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
    }
    for (int p = 0; p + 1 < nodes; p += 2) {
      const TaskId src = order[static_cast<size_t>(p)];
      const TaskId dst = order[static_cast<size_t>(p + 1)];
      trace.push(src, Event::send(dst, bytes));
      trace.push(dst, Event::recv(src, bytes));
    }
    trace.push_barrier_all();
    if (settle_after_barrier)
      for (TaskId t = 0; t < nodes; ++t) trace.push(t, Event::compute(0.0));
  }
  return trace;
}

// (trace_from_scheme used to live here; it is library code now —
// sim/events.hpp — because the serving layer lifts scheme queries through
// the same one-phase expansion.)

inline Placement identity_placement(int n) {
  std::vector<topo::NodeId> nodes(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) nodes[static_cast<size_t>(i)] = i;
  return Placement(std::move(nodes));
}

/// A seeded dynamic-cluster script: Poisson join/leave/fail churn plus
/// background cross-traffic over `horizon` seconds on `nodes` nodes. The
/// rates are tuned so a handful of each kind lands inside a typical
/// churn_trace makespan — enough to hit the abort and admission-gating
/// paths without drowning the measured job.
inline Scenario churn_scenario(uint64_t seed, int nodes,
                               double horizon = 0.5) {
  graph::ChurnSpec churn;
  churn.rate = 24.0;
  churn.horizon = horizon;
  churn.nodes = nodes;
  churn.p_fail = 0.6;
  graph::BackgroundSpec background;
  background.rate = 40.0;
  background.horizon = horizon;
  background.nodes = nodes;
  background.bytes = 8e5;
  background.spread = 2.0;
  Scenario scenario;
  scenario.churn = graph::generate_churn(churn, seed);
  scenario.background = graph::generate_background(background, seed);
  return scenario;
}

/// Replay `trace` under `cfg`, then again with EngineConfig::cross_check
/// armed: the oracle replay must not throw — its per-component fresh
/// re-solves, whole-set solve, queue keys, next-event scans and wake-order
/// scans all agree at every flush and event — and must be bit-identical to
/// the plain one. Returns the plain replay.
inline SimResult expect_cross_check_clean(
    const AppTrace& trace, const topo::ClusterSpec& cluster,
    const Placement& placement, const flowsim::RateProvider& provider,
    const Scenario& scenario = {}, EngineConfig cfg = {}) {
  const SimResult plain =
      run_simulation(trace, cluster, placement, provider, scenario, cfg);
  cfg.cross_check = true;
  SimResult checked;
  EXPECT_NO_THROW(checked = run_simulation(trace, cluster, placement,
                                           provider, scenario, cfg));
  expect_bit_identical(plain, checked);
  return plain;
}

}  // namespace bwshare::sim
