// The Section 3 consistency metrics: U, O, L, I and the compound score κ.
//
// All four component metrics are *variations* between two trials A and B,
// normalized to [0, 1] by a proven maximum (0 = the trials are identical
// in that dimension). κ = 1 - |⟨U,O,L,I⟩| / 2 scales the magnitude of the
// 4-vector into a single [0, 1] consistency score with 1 meaning complete
// consistency. Every metric is symmetric: X_AB = X_BA.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "core/edit_script.hpp"
#include "core/trial.hpp"

namespace choir::core {

/// The four normalized component metrics plus the compound score.
struct ConsistencyMetrics {
  double uniqueness = 0.0;  ///< U, Eq. 1
  double ordering = 0.0;    ///< O, Eq. 2
  double latency = 0.0;     ///< L, Eq. 3
  double iat = 0.0;         ///< I, Eq. 4
  double kappa = 1.0;       ///< κ, Eq. 5
};

/// Per-common-packet delta series, in B order. These are exactly the
/// quantities the paper's histograms (Figs. 4-10) plot.
struct ComparisonSeries {
  std::vector<double> iat_delta_ns;      ///< g_Bi - g_Ai
  std::vector<double> latency_delta_ns;  ///< l_Bi - l_Ai
  std::vector<std::int64_t> move_distance;  ///< signed, moved packets only
};

struct ComparisonOptions {
  /// Collect the per-packet delta series (needed for figures; costs one
  /// vector entry per common packet).
  bool collect_series = false;
  /// Keep the full alignment (matches, moves, LCS membership) in the
  /// result. Needed by consumers that attribute divergence to individual
  /// packets (the streaming monitor); costs the alignment's storage.
  bool collect_alignment = false;
};

struct ComparisonResult {
  ConsistencyMetrics metrics;
  ComparisonSeries series;  ///< populated iff options.collect_series
  Alignment alignment;      ///< populated iff options.collect_alignment

  // Occupancy counts, useful for reporting drops.
  std::size_t size_a = 0;
  std::size_t size_b = 0;
  std::size_t common = 0;
  std::size_t lcs_length = 0;
  std::size_t moved = 0;

  // Raw (un-normalized) numerators, matching GapReplay's "cumulative
  // latency" and "IAT deviation".
  double sum_abs_latency_delta_ns = 0.0;
  double sum_abs_iat_delta_ns = 0.0;
  double sum_abs_move_distance = 0.0;

  /// Fraction of common packets whose |IAT delta| <= threshold_ns.
  /// Requires collect_series; the paper reports this at 10 ns.
  double fraction_iat_within(double threshold_ns) const;
};

/// Compute κ and its components between trial A (the baseline run) and
/// trial B. Packet ids must be unique within each trial.
ComparisonResult compare_trials(const Trial& a, const Trial& b,
                                const ComparisonOptions& options = {});

/// Arena variant for steady-state comparison loops (bench suites,
/// per-flow demux, monitor windows): alignment and rank buffers live in
/// `scratch` and are reused across calls, so a warm scratch performs
/// zero heap allocations on the metrics-only path (collect_series /
/// collect_alignment copy into the result and still allocate there).
/// Bit-identical to the allocating overload.
ComparisonResult compare_trials(const Trial& a, const Trial& b,
                                const ComparisonOptions& options,
                                CompareScratch& scratch);

/// The scoring half of compare_trials: Eqs. 1-5, the occupancy counts and
/// (per `options.collect_series`) the series, from an alignment of `b`
/// against `a` already made by align_trials, align_matched or
/// align_from_matches. Times are read exactly as compare_trials reads
/// them (L's straddle mixes the two timebases), so pass the trials it
/// would see, rebased where it would be. Fills every field of *out
/// except `alignment`; a reused *out keeps its series capacity, which
/// keeps the monitor's window closes allocation-free. Per-flow κ scores
/// the packed per-flow spans of its arena through this same code.
void score_alignment(std::span<const TrialPacket> a,
                     std::span<const TrialPacket> b,
                     const Alignment& alignment,
                     const ComparisonOptions& options, ComparisonResult* out);

/// κ from precomputed components (Eq. 5).
double kappa_of(double u, double o, double l, double i);

}  // namespace choir::core
