#pragma once
// Exact quantiles over raw per-op latency samples. Every latency the
// benchmark reports comes from here, never from a bucketed histogram, so a
// p50 or p99 is one of the measured values rather than a bucket edge.
//
// Definition (nearest rank): for n samples and q in (0, 1], the q-quantile
// is the k-th smallest sample with k = ceil(q * n). The samples ranked
// above it — n - k of them — lie "beyond" it. A tail quantile is only
// meaningful when enough samples lie beyond it, so callers check
// reportable(): at least kMinBeyond samples past the reported value.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct QuantileResult {
  double value = 0.0;
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< samples ranked above the reported one
};

/// Nearest-rank q-quantile of `samples` (reorders them). Empty input or q
/// outside (0, 1] gives a zero result with samples == 0 / beyond == 0.
template <class T>
QuantileResult exact_quantile(std::vector<T>& samples, double q) {
  QuantileResult r;
  r.samples = samples.size();
  if (samples.empty() || !(q > 0.0) || q > 1.0) return r;
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps q * n that lands on an integer (0.99 * 1000) from
  // rounding up a rank through binary floating-point error.
  auto k = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  k = std::clamp<std::size_t>(k, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  r.value = static_cast<double>(*nth);
  r.beyond = samples.size() - k;
  return r;
}

[[nodiscard]] inline bool reportable(const QuantileResult& r) {
  return r.samples > 0 && r.beyond >= kMinBeyond;
}

template <class T = double>
[[nodiscard]] double mean_of(const std::vector<T>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const T v : samples) sum += static_cast<double>(v);
  return sum / static_cast<double>(samples.size());
}

[[nodiscard]] inline double median_of(std::vector<double> samples) {
  return exact_quantile(samples, 0.5).value;
}

}  // namespace perfbench
