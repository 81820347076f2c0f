#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

Pins::Pins(const Options& opt) : seed_(opt.seed) {
  std::ifstream in(opt.pins_dir + "/" + opt.workload + ".txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t a = line.find(' ');
    const size_t b = line.find(' ', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    pins_[line.substr(0, b)] = line.substr(b + 1);
  }
}

void Pins::check(Report& report, const std::string& key,
                 const std::string& value) const {
  std::printf("pin %llu %s %s\n", static_cast<unsigned long long>(seed_),
              key.c_str(), value.c_str());
  for (const std::string& scope : {std::to_string(seed_), std::string("*")}) {
    const auto it = pins_.find(scope + " " + key);
    if (it != pins_.end()) {
      report.checks.expect(it->second == value, key + ": got " + value +
                                                    ", pinned " + it->second);
      return;
    }
  }
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

namespace {

struct Metric {
  const char* name;
  const char* unit;
  double value;
  std::string samples;  // how the value was formed
};

// Per-layer metrics, in BENCHMARK.json order. A layer the workload does not
// exercise reports 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sim.replay_ms", "ms"},          {"sim.comms", "count"},
    {"sim.self_ms", "ms"},            {"sim.allocs_per_comm", "count"},
    {"sim.solve_share_pct", "%"},     {"flowsim.solve_calls", "count"},
    {"flowsim.solve_ms", "ms"},       {"flowsim.comp_mean", "count"},
    {"flowsim.comp_max", "count"},    {"models.solve_calls", "count"},
    {"models.solve_ms", "ms"},        {"models.comp_mean", "count"},
    {"models.comp_max", "count"},     {"hpl.trace_ms", "ms"},
    {"serve.protocol_ms", "ms"},      {"serve.canonicalize_ms", "ms"},
    {"serve.batch_ms", "ms"},         {"serve.cache_hit_ratio", "ratio"},
    {"serve.coalesced_ratio", "ratio"}, {"serve.warm_ratio", "ratio"},
    {"serve.solve_hit_ratio", "ratio"}, {"serve.result_evictions", "count"},
    {"serve.solve_evictions", "count"}, {"eval.replicates", "count"},
    {"eval.rounds", "count"},         {"eval.cell_ms", "ms"},
    {"stats.round_ms", "ms"},         {"mean_eabs_pct", "%"},
    {"failed_frac", "ratio"},         {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

std::string json_number(double v) {
  return std::isfinite(v) ? fmt17(v) : "null";
}

void print_machine(const Options& opt) {
  std::printf(
      "machine: {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, opt.commit.c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed),
      json_number(opt.seconds).c_str(), opt.trace ? 1 : 0);
}

/// Latency percentile `q` of a run's batches (see Report::batches_per_pass).
double batch_quantile(const Report& r, double q) {
  const size_t n = r.batches_per_pass;
  if (n <= 1) return quantile(r.batch_ms, q);
  std::vector<double> per_pass;
  for (size_t i = 0; i + n <= r.batch_ms.size(); i += n) {
    const auto first = r.batch_ms.begin() + static_cast<std::ptrdiff_t>(i);
    per_pass.push_back(quantile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(n)), q));
  }
  return median(per_pass);
}

}  // namespace

int emit(const Options& opt, Report& r) {
  print_machine(opt);
  const uint64_t attempted = r.requests + r.checks.attempted();
  const uint64_t failed = r.failed_requests + r.checks.failed();
  std::vector<Metric> metrics;
  if (!opt.trace) {
    const std::string batches =
        r.batches_per_pass > 1
            ? std::to_string(r.batches_per_pass) + " batches, median over " +
                  std::to_string(r.batch_ms.size() / r.batches_per_pass) +
                  " passes"
            : std::to_string(r.batch_ms.size()) + " batches";
    metrics = {
        {"setup_s", "s", median(r.setup_s),
         "median of " + std::to_string(r.setup_s.size()) + " set-ups"},
        {"replay_comms_per_s", "1/s", r.comm_records / r.timed_s,
         std::to_string(static_cast<uint64_t>(r.comm_records)) +
             " comm records over the timed phase"},
        {"serve_qps", "1/s", static_cast<double>(r.requests) / r.timed_s,
         std::to_string(r.requests) + " requests over the timed phase"},
        {"serve_p50_ms", "ms", batch_quantile(r, 0.50),
         "p50 of " + batches},
        {"serve_p95_ms", "ms", batch_quantile(r, 0.95),
         "p95 of " + batches},
        {"campaign_s", "s", median(r.pass_s),
         "median of " + std::to_string(r.pass_s.size()) + " passes"},
        {"peak_rss_mb", "MB", r.peak_rss_mb, "ru_maxrss after the timed phase"},
    };
  } else {
    r.layer["failed_frac"] =
        static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1));
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = r.layer.find(name);
      metrics.push_back({name, unit, it == r.layer.end() ? 0.0 : it->second,
                         "traced run"});
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-24s %18.6f %-6s (%s)\n", m.name, m.value, m.unit,
                m.samples.c_str());
  }
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(r.checks.attempted()),
              static_cast<unsigned long long>(r.checks.failed()));
  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(metrics[i].name) + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
