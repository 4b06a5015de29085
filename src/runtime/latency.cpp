#include "runtime/latency.hpp"

#include <algorithm>
#include <cmath>

namespace flexcs::runtime {

double latency_percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Linear interpolation between the two bracketing order statistics: the
  // quantile position in [0, n-1] splits into an index and a fraction. The
  // old nearest-rank (+0.5) rule biased every percentile upward — p50 of
  // {1, 2} reported 2 instead of 1.5.
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(lo),
                   values.end());
  const double v_lo = values[lo];
  if (frac == 0.0 || lo + 1 == values.size()) return v_lo;
  // nth_element leaves the (lo+1)-th order statistic as the minimum of the
  // upper partition.
  const double v_hi = *std::min_element(
      values.begin() + static_cast<std::ptrdiff_t>(lo) + 1, values.end());
  return v_lo + frac * (v_hi - v_lo);
}

void LatencyHistogram::add(double seconds) {
  // Bucket k in [1, kBuckets - 2] covers kLowest * 10^([k-1, k) / kPerDecade);
  // bucket 0 takes anything below (and NaN), the last one anything above.
  const double pos = seconds >= kLowest
                         ? 1.0 + std::log10(seconds / kLowest) * kPerDecade
                         : 0.0;
  ++counts_[static_cast<std::size_t>(
      std::min(pos, static_cast<double>(kBuckets - 1)))];
  ++count_;
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1) + 0.5);
  std::size_t k = 0;
  for (std::uint64_t seen = counts_[0]; seen <= rank; seen += counts_[k])
    ++k;
  const double centre = std::clamp(static_cast<double>(k) - 0.5, 0.0,
                                  static_cast<double>(kBuckets - 2));
  return kLowest * std::pow(10.0, centre / kPerDecade);
}

}  // namespace flexcs::runtime
