// Latency summaries: an exact interpolating percentile over a sample, and a
// fixed-size log-bucket histogram for counters that run without bound (the
// frame latencies behind ShardedDecoder::health()).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace flexcs::runtime {

/// Percentile with linear interpolation between order statistics (the
/// "exclusive" definition used by numpy's default): p50 of {1, 2} is 1.5,
/// not 2. `q` in [0, 1]; an empty sample reports 0. For tests and for
/// benchmarks that summarise their own latency samples.
double latency_percentile(std::vector<double> values, double q);

/// Latency histogram of constant size: log-spaced buckets, 40 per decade
/// from 1 us to 1000 s (each 6 % wide), plus one underflow and one overflow
/// bucket. percentile() returns the geometric centre of the bucket holding
/// the nearest-rank sample, so in range it lies within half a bucket of that
/// sample.
class LatencyHistogram {
 public:
  static constexpr int kPerDecade = 40;
  static constexpr double kLowest = 1e-6;  // seconds
  static constexpr std::size_t kBuckets = 9 * kPerDecade + 2;  // 9 decades

  void add(double seconds);
  /// `q` in [0, 1]; an empty histogram reports 0.
  double percentile(double q) const;
  std::uint64_t count() const { return count_; }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

}  // namespace flexcs::runtime
