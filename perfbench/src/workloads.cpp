#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::vector<double> repeat_for(double seconds,
                               const std::function<double()>& op) {
  std::vector<double> out;
  const auto t0 = Clock::now();
  do {
    out.push_back(op());
  } while (seconds_since(t0) < seconds);
  return out;
}

void fill_replay_layers(Report& r, const ReplayTally& t,
                        const TimingProvider::Totals& f,
                        const TimingProvider::Totals& m) {
  const double ops = std::max(t.ops, 1);
  const auto per_call = [](const TimingProvider::Totals& x) {
    return x.calls ? static_cast<double>(x.comms) / static_cast<double>(x.calls)
                   : 0.0;
  };
  r.layer["sim.replay_ms"] = t.replay_ms / ops;
  r.layer["sim.comms"] = t.comms / ops;
  r.layer["sim.self_ms"] = (t.replay_ms - f.solve_ms - m.solve_ms) / ops;
  r.layer["sim.allocs_per_comm"] = t.comms > 0 ? t.allocs / t.comms : 0.0;
  r.layer["sim.solve_share_pct"] =
      t.replay_ms > 0 ? 100.0 * (f.solve_ms + m.solve_ms) / t.replay_ms : 0.0;
  r.layer["flowsim.solve_calls"] = static_cast<double>(f.calls) / ops;
  r.layer["flowsim.solve_ms"] = f.solve_ms / ops;
  r.layer["flowsim.comp_mean"] = per_call(f);
  r.layer["flowsim.comp_max"] = static_cast<double>(f.max_comms);
  r.layer["models.solve_calls"] = static_cast<double>(m.calls) / ops;
  r.layer["models.solve_ms"] = m.solve_ms / ops;
  r.layer["models.comp_mean"] = per_call(m);
  r.layer["models.comp_max"] = static_cast<double>(m.max_comms);
}

void finish_trace(Report& r, const Tracer& tracer, const std::string& path) {
  for (const auto& [name, t] : tracer.totals()) {
    std::printf("span %-22s count %8llu total %12.3f ms self %12.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_ms, t.self_ms);
  }
  r.layer["trace.spans"] = static_cast<double>(tracer.size());
  tracer.write(path);
}

void fill_overhead(Report& r, const std::vector<double>& untraced_s,
                   const std::vector<double>& traced_s) {
  const double base = median(untraced_s);
  r.layer["trace.overhead_pct"] =
      base > 0 ? 100.0 * (median(traced_s) - base) / base : 0.0;
}

}  // namespace perfbench
