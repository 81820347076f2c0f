// Fixed-width histogram with text rendering, for penalty and error
// distributions. No program calls it; only tests/stats (test_histogram.cpp
// and one StatsFuzz case) do, and the StatsFuzz case counts toward CI's
// statistical-suite floor.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace bwshare::stats {

class Histogram {
 public:
  /// `bins` equal-width bins covering [lo, hi); out-of-range samples clamp to
  /// the first/last bin.
  Histogram(double lo, double hi, size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  [[nodiscard]] size_t total() const { return total_; }
  [[nodiscard]] size_t bin_count(size_t i) const { return counts_.at(i); }
  [[nodiscard]] size_t num_bins() const { return counts_.size(); }
  [[nodiscard]] double bin_low(size_t i) const;
  [[nodiscard]] double bin_high(size_t i) const;

  /// ASCII bar rendering, widest bar = `width` characters.
  [[nodiscard]] std::string render(int width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

}  // namespace bwshare::stats
