// Shared summary-statistic primitives.
//
// Before this header existed, src/analysis/stats, the telemetry latency
// histogram, and the Table 1 bench each carried their own mean/stddev
// and percentile arithmetic, with subtly different rank conventions.
// The conventions are now defined once, here, and everything else
// delegates:
//
//  - summarize(): count / mean / population stddev / min / max in two
//    passes (numerically stable enough for the value ranges we see,
//    and exactly what the old analysis::summarize computed).
//  - percentile_sorted(): linear interpolation on the (size-1) rank
//    grid, with p0 == front and p100 == back exactly (the semantics
//    test_stats pins down).
//  - percentile_rank(): the ceil(p/100 * count) rank — clamped to
//    [1, count] — that the bucketed latency histogram resolves against
//    its counts; kept separate because a histogram has ranks, not a
//    sorted sample vector.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

namespace choir::stats {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double min = 0.0;
  double max = 0.0;
};

/// Two-pass summary of `map(v)` over the values.
template <typename T, typename Map>
Summary summarize(std::span<const T> values, Map map) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  double sum = 0.0;
  double lo = map(values[0]);
  double hi = lo;
  for (const T& v : values) {
    const double x = map(v);
    sum += x;
    if (x < lo) lo = x;
    if (x > hi) hi = x;
  }
  s.mean = sum / static_cast<double>(s.count);
  double var = 0.0;
  for (const T& v : values) {
    const double d = map(v) - s.mean;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(s.count));
  s.min = lo;
  s.max = hi;
  return s;
}

/// The two ranks percentile_sorted interpolates between for `p` over a
/// sample of `size` points, and the weight of the upper one. Only these
/// two order statistics are read, so a caller may select them (e.g.
/// with std::nth_element) instead of sorting the whole sample.
struct PercentileBracket {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;
};

inline PercentileBracket percentile_bracket(std::size_t size, double p) {
  const double rank = p / 100.0 * static_cast<double>(size - 1);
  PercentileBracket b;
  b.lo = static_cast<std::size_t>(rank);
  b.hi = b.lo + 1 < size ? b.lo + 1 : size - 1;
  b.frac = rank - static_cast<double>(b.lo);
  return b;
}

/// Percentile of an ascending-sorted sample by linear interpolation:
/// rank p/100 * (n-1), so p0 is exactly the minimum and p100 exactly
/// the maximum. Preconditions (non-empty, p in [0,100]) are the
/// caller's to check — analysis::percentile turns them into errors.
inline double percentile_sorted(std::span<const double> sorted, double p) {
  const PercentileBracket b = percentile_bracket(sorted.size(), p);
  return sorted[b.lo] + (sorted[b.hi] - sorted[b.lo]) * b.frac;
}

/// The 99.9th percentile of an ascending-sorted sample — the high tail
/// (latency-style distributions where large is bad). Same rank
/// interpolation as percentile_sorted, so a sample smaller than 1000
/// points interpolates toward the maximum and p99.9 of a single point
/// is that point exactly.
inline double p999_sorted(std::span<const double> sorted) {
  return percentile_sorted(sorted, 99.9);
}

/// The mirrored 99.9th-percentile severity of an ascending-sorted
/// sample whose *low* end is the tail (κ-style distributions where
/// small is bad): the value only 0.1% of the sample sits below. Flow
/// aggregates report this as kappa_p999 (docs/FLOWS.md).
inline double p999_low_sorted(std::span<const double> sorted) {
  return percentile_sorted(sorted, 0.1);
}

/// One-based rank of percentile `p` in a population of `count` samples:
/// ceil(p/100 * count) clamped to [1, count]. NaN p counts as 0.
inline std::uint64_t percentile_rank(double p, std::uint64_t count) {
  const double clamped =
      std::isnan(p) ? 0.0 : (p < 0.0 ? 0.0 : (p > 100.0 ? 100.0 : p));
  auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  return rank;
}

}  // namespace choir::stats
