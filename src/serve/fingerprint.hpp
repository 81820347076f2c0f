// Query canonicalization and fingerprinting for serve::QueryService
// (docs/SERVING.md).
//
// A Query arrives as surface syntax — a builtin scheme name, a .scheme or
// .trace path, inline scheme/trace text, axis spellings like "gige" or
// "RRN". Canonicalization resolves all of it to *content*: every workload
// becomes a validated sim::AppTrace (schemes through sim::trace_from_scheme,
// generator specs expanded with the query's seed), the interconnect and
// model to their registry identities, the cluster to its effective shape.
// The fingerprint is a util::StructuralHash over that resolved content, so
// two queries that mean the same replay hash the same even when they were
// spelled differently (path vs inline text, "network" vs the explicit model
// name, a cluster too small for its scheme vs one already grown), and any
// semantically distinct field — one byte more, one node elsewhere — hashes
// differently.
//
// Deliberately excluded from the fingerprint:
//   * `id` — client correlation tag, echoed verbatim;
//   * the seed, when it cannot affect the replay (placement policy is
//     deterministic and no churn/background script is drawn) — it is
//     canonicalized to 0 so "seed":7 and "seed":9 share a cache line;
//   * execution strategy (solve mode, thread counts, cross_check): the
//     engine contract makes those bit-identical, so caching across them is
//     exactly as safe as caching across repeats.
//
// Stability: fingerprints inherit the util::StructuralHash contract — stable
// within one build, NOT across releases. Never persist them.
#pragma once

#include <cstdint>
#include <string>

#include "eval/sweep.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "topo/network.hpp"

namespace bwshare::serve {

/// One prediction request, as parsed off the wire (serve/protocol.hpp) or
/// built programmatically. Exactly one of scheme / scheme_text / trace /
/// trace_text must be set.
struct Query {
  /// Client correlation tag, echoed in the response; never fingerprinted.
  std::string id;
  /// Scheme workload, SweepSpec::schemes grammar: a builtin name
  /// (optionally "@SIZE"), a .scheme path, or a generator spec
  /// "family:key=value,...".
  std::string scheme;
  /// Inline scheme DSL source (docs/SCHEME_DSL.md).
  std::string scheme_text;
  /// Trace-file path (sim/trace_io format).
  std::string trace;
  /// Inline trace text.
  std::string trace_text;
  std::string network = "gige";
  /// Penalty model name, or "network" for the interconnect's own model.
  std::string model = "network";
  int nodes = 16;
  int cores = 2;
  std::string schedule = "RRN";
  /// Dynamic-cluster scenario rates (events/s resp. flows/s over a 1 s
  /// horizon — the sweep axes' convention).
  double churn = 0.0;
  double background = 0.0;
  /// Drives random placement, churn/background scripts and generator
  /// expansion. Inert (and canonicalized away) when none of those apply.
  uint64_t seed = 42;
};

/// A Query resolved to executable content plus its fingerprint.
struct CanonicalQuery {
  std::string id;
  /// Always a trace workload (schemes are lifted via trace_from_scheme);
  /// `key` keeps the query's display spelling.
  eval::ResolvedWorkload workload;
  topo::NetworkTech tech{};
  std::string model;  // resolved registry name
  int nodes = 0;      // effective: grown to fit a scheme workload
  int cores = 0;
  sim::SchedulingPolicy policy = sim::SchedulingPolicy::kRoundRobinNode;
  double churn = 0.0;
  double background = 0.0;
  uint64_t seed = 0;
  /// True when the seed can still influence the replay (random placement
  /// or a nonzero scenario rate); false means it was canonicalized to 0
  /// in the fingerprint.
  bool seed_live = false;
  uint64_t fingerprint = 0;
};

/// Resolve and fingerprint one query. Throws bwshare::Error on malformed
/// input: no workload (or more than one), unknown network/model/schedule,
/// out-of-range shape or rates, unparsable scheme/trace content.
[[nodiscard]] CanonicalQuery canonicalize(const Query& q);

/// Content hash of a full replay result — every field bit_identical()
/// compares. Two SimResults hash equal iff a bitwise comparison passes
/// (modulo 64-bit collisions), which is what lets the serving conformance
/// suite pin "the cached answer IS the fresh answer" through one number.
[[nodiscard]] uint64_t hash_sim_result(const sim::SimResult& r);

}  // namespace bwshare::serve
