// Ordinary least squares fits: a general line and a line through the
// origin (the §V-A shape of penalty vs. conflict degree). No program calls
// them; only tests/stats (test_regression.cpp and three StatsFuzz cases)
// do, and the StatsFuzz cases count toward CI's statistical-suite floor.
#pragma once

#include <span>

namespace bwshare::stats {

/// Result of a simple linear regression y ≈ intercept + slope·x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  /// Coefficient of determination.
  double r_squared = 0.0;
};

/// OLS fit of y = a + b·x. Requires at least two distinct x values.
[[nodiscard]] LinearFit fit_linear(std::span<const double> x,
                                   std::span<const double> y);

/// OLS fit of y = b·x (regression through the origin).
[[nodiscard]] double fit_proportional(std::span<const double> x,
                                      std::span<const double> y);

}  // namespace bwshare::stats
