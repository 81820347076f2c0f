// Result assembly shared by the workloads: output checks, end-to-end
// timing samples, per-layer figures, and the final JSON line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
  std::string pins_dir;   // pinned reference outputs
  std::string commit = "unknown";
};

/// Output checks. Every check counts as one attempted operation; a failed
/// one counts as failed and makes the run exit non-zero.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// What one run measured. Every workload fills the same end-to-end
/// fields; GLOSSARY.md says what a request, a batch and a pass are on each.
struct Report {
  Checks checks;
  uint64_t requests = 0;       // requests answered in the timed phase
  uint64_t failed_requests = 0;
  double comm_records = 0.0;   // comm records carried by those answers
  double timed_s = 0.0;        // wall time of the timed phase
  std::vector<double> setup_s;     // one per set-up
  std::vector<double> batch_ms;    // one per batch, in pass order
  /// Batches per pass, when a pass holds many: the latency percentiles
  /// are then taken within each pass and their median over passes is
  /// reported, so a burst of outside interference during one pass does
  /// not decide the run's tail.
  size_t batches_per_pass = 1;
  std::vector<double> pass_s;      // one per complete pass over the input
  double peak_rss_mb = 0.0;        // sampled right after the timed phase
  /// Per-layer figures of the traced run, by BENCHMARK.json name.
  std::map<std::string, double> layer;
};

/// Pinned reference outputs, one `<seed|*> <key> <value>` per line in
/// <pins_dir>/<workload>.txt; `*` pins a value every seed must reproduce.
/// check() prints every value as a `pin` line, so a pin file can be
/// regenerated from the output, and checks it against its pin if there is
/// one for this seed.
class Pins {
 public:
  explicit Pins(const Options& opt);
  void check(Report& report, const std::string& key,
             const std::string& value) const;

 private:
  uint64_t seed_;
  std::map<std::string, std::string> pins_;  // "<seed|*> <key>" -> value
};

/// %.17g: enough digits to round-trip a double.
[[nodiscard]] std::string fmt17(double v);

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

/// Print the machine block, the human-readable metric lines and, last, the
/// one-line JSON result. Returns the process exit code.
int emit(const Options& opt, Report& report);

}  // namespace perfbench
