#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty() || !(q > 0.0) || q > 1.0) return p;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  p.value = samples[idx];
  p.beyond = samples.size() - idx - 1;
  p.valid = q <= 0.5 || p.beyond >= kMinBeyond;
  return p;
}

std::vector<double> fastest(std::vector<double> samples, std::size_t count) {
  count = std::min(count, samples.size());
  std::partial_sort(samples.begin(),
                    samples.begin() + static_cast<std::ptrdiff_t>(count),
                    samples.end());
  samples.resize(count);
  return samples;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
