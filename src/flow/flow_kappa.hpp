// Per-flow consistency evaluation and cross-flow aggregation.
//
// The Section 3 metrics grade a whole trial; at many-flow scale the
// question becomes "which flows replayed badly, and how bad is the
// tail". compare_flows() demuxes two trials by flow, runs the exact
// Eq. 5 comparison per matched flow on the flow's own timebase, and
// summarizes the per-flow κ distribution as a FlowAggregate:
// worst-case, p50/p90/p99/p99.9 (stats::percentile_sorted
// conventions; the κ tail is the distribution's low end), a
// packet-weighted mean, and the plain mean.
//
// Grading convention for unmatched flows: a flow present in only one
// trial (every packet missing, or every packet extra) is graded exactly
// as Eq. 5 grades a trial against an empty one — U = 1, O = L = I = 0,
// κ = 1 - 1/2 = 0.5 — and participates in the aggregate with its
// one-sided packet weight. A wholly dropped flow therefore drags the
// tail percentiles instead of vanishing from them.
//
// Determinism: flows are keyed to index-addressed result slots before
// any fan-out, and the aggregate is folded sequentially in flow-id
// order, so results are bit-identical at any `jobs` value.
//
// Cost: every entry point runs one fused pass (see FlowCompareArena).
// Both sides are counting-sorted by flow into a CSR arena, B is matched
// to A through one flat index over the whole A side, and each flow then
// runs only the rank/LIS/edit-script half of the κ kernel
// (core::align_from_matches) and the shared scorer — the same code
// compare_trials runs, so every per-flow result equals compare_trials on
// the demuxed, rebased flow pair bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/compare_scratch.hpp"
#include "core/metrics.hpp"
#include "flow/flow_key.hpp"
#include "flow/flow_table.hpp"

namespace choir::flow {

struct FlowComparison {
  FlowKey key;            ///< default (all-zero) on the by-id path
  FlowId id = kNoFlow;    ///< id in the reference (A) id space; B-only
                          ///< flows get ids past A's count
  std::uint32_t packets_a = 0;
  std::uint32_t packets_b = 0;
  bool in_a = false;
  bool in_b = false;
  bool matched() const { return in_a && in_b; }
  core::ConsistencyMetrics metrics;  ///< exact Eq. 5 on the sub-trials
};

struct FlowAggregate {
  std::size_t flows = 0;    ///< union of flows across both trials
  std::size_t matched = 0;  ///< present in both
  std::size_t only_a = 0;   ///< wholly missing from B
  std::size_t only_b = 0;   ///< wholly extra in B
  double worst = 0.0;       ///< min κ across flows
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;  ///< stats::p999_low_sorted — the extreme κ tail
  double weighted_mean = 0.0;  ///< κ weighted by per-flow packet count
  double mean = 0.0;
};

struct FlowSetComparison {
  /// Per-flow comparisons ordered by flow id (A's first-seen order, then
  /// B-only flows in B's first-seen order).
  std::vector<FlowComparison> flows;
  FlowAggregate aggregate;
  std::uint64_t unclassified_a = 0;  ///< packets dropped from the demux
  std::uint64_t unclassified_b = 0;
};

/// Reusable arena of the fused per-flow comparison. Owned by a caller
/// that compares repeatedly (the streaming monitor's windows and
/// finales), it makes the comparison allocation-free once warm; the
/// one-shot entry points build a temporary one.
///
/// Layout: per side, a CSR pair — `offsets_*` (flow_count + 1 entries;
/// flow f is [offsets[f], offsets[f + 1])) and `packets_*`, each flow's
/// packets in arrival order rebased to the flow's first packet. `slots`
/// is the match index over the flows present on both sides, in the
/// trial occurrence table's idiom: linear probing over a power-of-two
/// table, a slot packing the (flow, id) hash's high 32 bits, a B-side
/// bit and a CSR position + 1 (0 = empty). The key includes the flow, so
/// one id in two flows is two keys. `claims` stamps each A position
/// with the flow-local match that took it (epoch-stamped, as in
/// core::CompareScratch), `match_a` holds each B position's flow-local A
/// index, and `kappas` is aggregate_flows' sort buffer. `csr_a` /
/// `csr_b` map trial positions to CSR positions when the caller supplies
/// the matches (see compare_flows_by_id).
struct FlowCompareArena {
  std::vector<std::uint32_t> offsets_a, offsets_b;
  std::vector<core::TrialPacket> packets_a, packets_b;
  std::vector<std::uint32_t> csr_a, csr_b;
  std::vector<std::uint64_t> slots;
  std::vector<core::CompareScratch::Claim> claims;
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> match_a;
  std::vector<double> kappas;
  core::CompareScratch scratch;  ///< rank/LIS buffers, sequential path
};

/// Fold an ordered per-flow comparison list into the aggregate (percentile
/// conventions from common/stats.hpp). Exposed for the streaming monitor,
/// which accumulates FlowComparisons of its own.
FlowAggregate aggregate_flows(std::span<const FlowComparison> flows);

/// Same, sorting in `*kappas` (cleared first, capacity kept).
FlowAggregate aggregate_flows(std::span<const FlowComparison> flows,
                              std::vector<double>* kappas);

/// compare_flows_by_id over packet spans through a caller-owned arena,
/// into *out (overwritten; its flow vector keeps its capacity). The
/// spans need not be rebased: each flow is rebased in the arena.
///
/// `b_to_a`, when non-empty, parallels B and holds what a caller that
/// has already matched the whole trials knows (the streaming monitor):
/// the position in A of the packet with B packet i's id, or
/// core::ReferenceIndex::kNoIndex. It replaces the flat index: B packet
/// i matches in its flow iff b_to_a[i] is in the same flow. Ids must
/// then be unique on each side, which is not checked.
void compare_flows_by_id(std::span<const core::TrialPacket> a,
                         std::span<const FlowId> ids_a,
                         std::span<const core::TrialPacket> b,
                         std::span<const FlowId> ids_b,
                         std::size_t flow_count, int jobs,
                         FlowCompareArena& arena, FlowSetComparison* out,
                         std::span<const std::uint32_t> b_to_a = {});

/// Compare two trials flow by flow when both were classified against the
/// SAME id space (e.g. the recorder's persistent classifier): ids match
/// directly. `flow_count` is the id-space size; `jobs` fans the per-flow
/// comparisons across the task pool (0 = auto, 1 = sequential).
FlowSetComparison compare_flows_by_id(const core::Trial& a,
                                      std::span<const FlowId> ids_a,
                                      const core::Trial& b,
                                      std::span<const FlowId> ids_b,
                                      std::size_t flow_count, int jobs = 1);

/// Compare two independently classified trials: flows are matched by key
/// (B's ids are remapped into A's id space; B-only flows are appended).
/// Fills FlowComparison::key from the tables.
FlowSetComparison compare_flows(const core::Trial& a, const FlowTable& table_a,
                                std::span<const FlowId> ids_a,
                                const core::Trial& b, const FlowTable& table_b,
                                std::span<const FlowId> ids_b, int jobs = 1);

}  // namespace choir::flow
