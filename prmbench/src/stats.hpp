// Order statistics used by every timing the benchmark reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace prmbench {

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least q of the sample at or below it. 0 for an empty sample.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (mean of the two middle values when even).
double median(std::vector<double> values);

double mean(const std::vector<double>& values);

/// Mean of the middle half: the sorted sample less its lowest and highest
/// floor(n / 4) values. Unlike the median it moves smoothly when the sample
/// mixes two typical values in shifting shares.
double interquartile_mean(std::vector<double> values);

/// The percentile rule: the highest of p50, p90, p99, p99.9, p99.99,
/// p99.999 that has at least ten samples beyond it.
struct TailRank {
  double q = 0.0;          ///< 0 when fewer than 20 samples (no rung qualifies).
  std::size_t beyond = 0;  ///< Samples strictly beyond the rank.
  std::string label;       ///< "p99.9"; empty when q == 0.
};

TailRank highest_tail(std::size_t n);

}  // namespace prmbench
