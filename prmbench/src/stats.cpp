#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace prmbench {

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // The epsilon keeps q * n from rounding up past an exact rank (0.9 * 10).
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(static_cast<std::size_t>(rank) - 1, sorted.size() - 1);
  return sorted[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  return std::accumulate(values.begin() + static_cast<std::ptrdiff_t>(cut),
                         values.end() - static_cast<std::ptrdiff_t>(cut), 0.0) /
         static_cast<double>(values.size() - 2 * cut);
}

TailRank highest_tail(std::size_t n) {
  struct Rung {
    double q;
    const char* label;
  };
  static constexpr Rung kLadder[] = {{0.5, "p50"},       {0.9, "p90"},
                                     {0.99, "p99"},      {0.999, "p99.9"},
                                     {0.9999, "p99.99"}, {0.99999, "p99.999"}};
  TailRank best;
  for (const Rung& rung : kLadder) {
    // Samples beyond the nearest rank: n - ceil(q n).
    const auto rank =
        static_cast<std::size_t>(std::ceil(rung.q * static_cast<double>(n) - 1e-9));
    const std::size_t beyond = n > rank ? n - rank : 0;
    if (beyond < 10) break;
    best = TailRank{rung.q, beyond, rung.label};
  }
  return best;
}

}  // namespace prmbench
