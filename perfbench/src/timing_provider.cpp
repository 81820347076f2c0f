#include "timing_provider.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

}  // namespace

TimingProvider::Totals& TimingProvider::Totals::operator+=(const Totals& o) {
  calls += o.calls;
  solve_ms += o.solve_ms;
  comms += o.comms;
  max_comms = std::max(max_comms, o.max_comms);
  return *this;
}

TimingProvider::Totals TimingProvider::totals() const {
  Totals t;
  t.calls = calls_.load();
  t.solve_ms = static_cast<double>(ns_.load()) * 1e-6;
  t.comms = comms_.load();
  t.max_comms = max_comms_.load();
  return t;
}

void TimingProvider::record(int64_t ns, size_t size) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  ns_.fetch_add(ns, std::memory_order_relaxed);
  comms_.fetch_add(size, std::memory_order_relaxed);
  uint64_t seen = max_comms_.load(std::memory_order_relaxed);
  while (size > seen &&
         !max_comms_.compare_exchange_weak(seen, size,
                                           std::memory_order_relaxed)) {
  }
}

std::vector<double> TimingProvider::rates(
    const bwshare::graph::CommGraph& active) const {
  const auto t0 = Clock::now();
  auto out = inner_.rates(active);
  record(ns_since(t0), static_cast<size_t>(active.size()));
  return out;
}

void TimingProvider::rates_into(const bwshare::graph::CommGraph& active,
                                bwshare::util::Arena& scratch,
                                std::span<double> out) const {
  const auto t0 = Clock::now();
  inner_.rates_into(active, scratch, out);
  record(ns_since(t0), static_cast<size_t>(active.size()));
}

std::vector<double> TimingProvider::rates(
    const bwshare::graph::CommGraph& active,
    std::span<const bwshare::graph::CommId> subset) const {
  const auto t0 = Clock::now();
  auto out = inner_.rates(active, subset);
  record(ns_since(t0), subset.size());
  return out;
}

std::vector<int> TimingProvider::coupling_keys(bwshare::topo::NodeId src,
                                               bwshare::topo::NodeId dst) const {
  return inner_.coupling_keys(src, dst);
}

}  // namespace perfbench
