// A forwarding flowsim::RateProvider that times and counts the solves it
// passes through. Wrapped around a FluidRateProvider or a
// sim::ModelRateProvider, it gives the per-layer solve figures of the
// traced run without touching the library: the engine calls rates_into once
// per dirty component, so calls = components solved and the active-graph
// size = component size.
//
// The accumulators are atomics, so the decorator is safe under the engine's
// parallel flush (SolveMode::kParallel), which calls it from pool threads.
// They never feed back into a rate, so a decorated replay stays
// bit-identical to an undecorated one (checked by perfbench_selftest).
#pragma once

#include <atomic>
#include <cstdint>

#include "flowsim/fluid_network.hpp"

namespace perfbench {

class TimingProvider final : public bwshare::flowsim::RateProvider {
 public:
  explicit TimingProvider(const bwshare::flowsim::RateProvider& inner)
      : inner_(inner) {}

  struct Totals {
    uint64_t calls = 0;
    double solve_ms = 0.0;
    uint64_t comms = 0;     // summed active-graph sizes
    uint64_t max_comms = 0; // largest active graph
    Totals& operator+=(const Totals& o);
  };
  [[nodiscard]] Totals totals() const;

  [[nodiscard]] std::vector<double> rates(
      const bwshare::graph::CommGraph& active) const override;
  void rates_into(const bwshare::graph::CommGraph& active,
                  bwshare::util::Arena& scratch,
                  std::span<double> out) const override;
  [[nodiscard]] std::vector<double> rates(
      const bwshare::graph::CommGraph& active,
      std::span<const bwshare::graph::CommId> subset) const override;
  [[nodiscard]] std::vector<int> coupling_keys(
      bwshare::topo::NodeId src, bwshare::topo::NodeId dst) const override;

 private:
  void record(int64_t ns, size_t size) const;

  const bwshare::flowsim::RateProvider& inner_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<int64_t> ns_{0};
  mutable std::atomic<uint64_t> comms_{0};
  mutable std::atomic<uint64_t> max_comms_{0};
};

}  // namespace perfbench
