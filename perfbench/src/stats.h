// Order statistics for host timings. A percentile is reported only with
// its sample count, and a tail percentile only when at least
// kMinBeyond samples lie beyond it.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples strictly above the nearest rank
  bool valid = false;      // samples > 0 and beyond >= the caller's minimum
};

/// Nearest-rank percentile, q in (0, 1]. For q > 0.5, valid requires
/// kMinBeyond samples beyond the rank; the median needs one sample.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q);

/// The `count` smallest samples (all of them when there are fewer),
/// ascending.
[[nodiscard]] std::vector<double> fastest(std::vector<double> samples,
                                          std::size_t count);

/// Median (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
