#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "core/compare_scratch.hpp"
#include "telemetry/span_profiler.hpp"

namespace choir::core {

double kappa_of(double u, double o, double l, double i) {
  return 1.0 - std::sqrt(u * u + o * o + l * l + i * i) / 2.0;
}

double ComparisonResult::fraction_iat_within(double threshold_ns) const {
  CHOIR_EXPECT(!series.iat_delta_ns.empty() || common == 0,
               "fraction_iat_within requires collect_series");
  if (series.iat_delta_ns.empty()) return 1.0;
  std::size_t within = 0;
  for (const double d : series.iat_delta_ns) {
    if (std::abs(d) <= threshold_ns) ++within;
  }
  return static_cast<double>(within) /
         static_cast<double>(series.iat_delta_ns.size());
}

ComparisonResult compare_trials(const Trial& a, const Trial& b,
                                const ComparisonOptions& options) {
  CompareScratch scratch;
  return compare_trials(a, b, options, scratch);
}

ComparisonResult compare_trials(const Trial& a, const Trial& b,
                                const ComparisonOptions& options,
                                CompareScratch& scratch) {
  telemetry::ProfileSpan prof("kappa.compare");
  ComparisonResult out;
  Alignment& alignment = scratch.alignment;
  align_trials(a, b, scratch, &alignment);
  score_alignment(a.packets(), b.packets(), alignment, options, &out);
  // Copy, not move: the alignment's buffers stay in the scratch so the
  // next comparison reuses them.
  if (options.collect_alignment) out.alignment = alignment;
  return out;
}

void score_alignment(std::span<const TrialPacket> a,
                     std::span<const TrialPacket> b,
                     const Alignment& alignment,
                     const ComparisonOptions& options, ComparisonResult* out) {
  out->metrics = ConsistencyMetrics{};
  out->series.iat_delta_ns.clear();
  out->series.latency_delta_ns.clear();
  out->series.move_distance.clear();
  out->size_a = alignment.size_a;
  out->size_b = alignment.size_b;
  out->common = alignment.common();
  out->lcs_length = alignment.lcs_length;
  out->moved = alignment.moves.size();
  out->sum_abs_latency_delta_ns = 0.0;
  out->sum_abs_iat_delta_ns = 0.0;

  const double m = static_cast<double>(out->common);

  // --- U, Eq. 1: overlap deficit. Two empty trials are identical.
  const double total = static_cast<double>(out->size_a + out->size_b);
  out->metrics.uniqueness = total > 0.0 ? 1.0 - 2.0 * m / total : 0.0;

  // --- O, Eq. 2: sum of move distances over the reversal worst case
  // (sum of 0..|A∩B|, a constantly increasing length of swaps around one
  // end).
  out->sum_abs_move_distance = alignment.total_abs_displacement();
  const double o_denominator = m * (m + 1.0) / 2.0;
  out->metrics.ordering =
      o_denominator > 0.0 ? out->sum_abs_move_distance / o_denominator : 0.0;

  if (options.collect_series) {
    out->series.iat_delta_ns.reserve(out->common);
    out->series.latency_delta_ns.reserve(out->common);
    out->series.move_distance.reserve(out->moved);
    for (const Move& mv : alignment.moves) {
      out->series.move_distance.push_back(mv.displacement);
    }
  }

  // --- L (Eq. 3) and I (Eq. 4) numerators, one pass over the matches.
  // The sums live in locals: the series appends would otherwise force
  // them through memory on every packet.
  if (out->common > 0) {
    const Ns t_a0 = a.front().time;
    const Ns t_b0 = b.front().time;
    double sum_latency = 0.0;
    double sum_iat = 0.0;
    for (const MatchedPacket& match : alignment.matches) {
      const std::uint32_t j = match.index_a;
      const std::uint32_t k = match.index_b;
      const double l_a = static_cast<double>(a[j].time - t_a0);
      const double l_b = static_cast<double>(b[k].time - t_b0);
      // g_X0 = 0 by the paper's base case t_X0 = t_X(-1).
      const double g_a =
          j == 0 ? 0.0 : static_cast<double>(a[j].time - a[j - 1].time);
      const double g_b =
          k == 0 ? 0.0 : static_cast<double>(b[k].time - b[k - 1].time);
      sum_latency += std::abs(l_a - l_b);
      sum_iat += std::abs(g_a - g_b);
      if (options.collect_series) {
        out->series.latency_delta_ns.push_back(l_b - l_a);
        out->series.iat_delta_ns.push_back(g_b - g_a);
      }
    }
    out->sum_abs_latency_delta_ns = sum_latency;
    out->sum_abs_iat_delta_ns = sum_iat;

    // L denominator: |A∩B| * max straddle (Fig. 2's worst case).
    const Ns a_duration = a.back().time - t_a0;
    const Ns b_duration = b.back().time - t_b0;
    const double straddle = static_cast<double>(
        std::max(b.back().time - t_a0, a.back().time - t_b0));
    const double l_denominator = m * straddle;
    out->metrics.latency =
        l_denominator > 0.0 ? out->sum_abs_latency_delta_ns / l_denominator
                            : 0.0;

    // I denominator: sum of the two trial durations (Fig. 3's worst case).
    const double i_denominator = static_cast<double>(b_duration + a_duration);
    out->metrics.iat =
        i_denominator > 0.0 ? out->sum_abs_iat_delta_ns / i_denominator : 0.0;
  }

  out->metrics.kappa = kappa_of(out->metrics.uniqueness, out->metrics.ordering,
                                out->metrics.latency, out->metrics.iat);
}

}  // namespace choir::core
