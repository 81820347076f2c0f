// The four benchmark workloads (GLOSSARY.md) and the helpers they share.
#pragma once

#include <functional>

#include "report.hpp"
#include "timing_provider.hpp"

namespace perfbench {

void run_matching(const Options& opt, Report& report);
void run_hpl(const Options& opt, Report& report);
void run_serve(const Options& opt, Report& report);
void run_campaign(const Options& opt, Report& report);

/// Repeat `op` until `seconds` of wall time have passed (at least once);
/// `op` returns its own measured duration in seconds. Returns the durations.
std::vector<double> repeat_for(double seconds,
                               const std::function<double()>& op);

/// What the traced replays of a run added up to.
struct ReplayTally {
  int ops = 0;              // traced operations
  double replay_ms = 0.0;   // wall time inside sim::run_simulation
  double comms = 0.0;       // comm records those replays produced
  double allocs = 0.0;      // util::alloc_count() delta across them
};

/// Fill the sim.*, flowsim.* and models.* per-layer figures, per traced
/// operation, from the decorators' totals.
void fill_replay_layers(Report& report, const ReplayTally& tally,
                        const TimingProvider::Totals& fluid,
                        const TimingProvider::Totals& model);

/// Print every span name's count, total and self time, record
/// trace.spans, and write the spans to `path`.
void finish_trace(Report& report, const Tracer& tracer,
                  const std::string& path);

/// trace.overhead_pct: traced minus untraced median operation time, as a
/// share of the untraced median.
void fill_overhead(Report& report, const std::vector<double>& untraced_s,
                   const std::vector<double>& traced_s);

}  // namespace perfbench
