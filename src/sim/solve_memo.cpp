#include "sim/solve_memo.hpp"

namespace bwshare::sim {

bool SolveMemo::lookup(uint64_t key, std::vector<double>& rates) {
  if (frozen_ != nullptr && frozen_->lookup(key, rates)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++frozen_hits_;
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = staged_.find(key);
  if (it != staged_.end()) {
    rates = it->second;
    return true;
  }
  ++misses_;
  return false;
}

void SolveMemo::stage(uint64_t key, const std::vector<double>& rates) {
  std::lock_guard<std::mutex> lock(mu_);
  staged_.emplace(key, rates);
}

size_t SolveMemo::frozen_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frozen_hits_;
}

size_t SolveMemo::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace bwshare::sim
