// Independent checks of the program's outputs. Each recomputes what it
// checks from the inputs with the benchmark's own code (sorted-vector id
// matching, plain timestamp sums, patience LIS) or tests a property the
// method must have; none compares against a stored copy of an output.
// Every check throws CheckFailure on a mismatch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "core/trial.hpp"
#include "flow/flow_kappa.hpp"
#include "monitor/stream_monitor.hpp"
#include "testbed/experiment.hpp"
#include "trace/flow_classify.hpp"

namespace perfbench {

/// κ equals Eq. 5 recomputed from U, O, L, I, and every one of the five
/// lies in [0, 1].
void check_eq5(const choir::core::ConsistencyMetrics& m);

/// Sorted (id, position) index of a trial: the benchmark's own id
/// matching, independent of the program's hash tables.
class IdIndex {
 public:
  explicit IdIndex(const choir::core::Trial& trial);
  /// Position of `id`, or -1 when absent.
  std::int64_t find(const choir::core::PacketId& id) const;

 private:
  struct Entry {
    std::uint64_t hi, lo;
    std::uint32_t pos;
  };
  std::vector<Entry> entries_;
};

/// U, L and I recomputed by id matching and timestamp sums; the LCS
/// length recomputed as the patience LIS over the matched A positions in
/// B order; O = 0 exactly when the LCS covers every common packet; Eq. 5.
void check_comparison(const choir::core::Trial& a, const IdIndex& index_a,
                      const choir::core::Trial& b,
                      const choir::core::ComparisonResult& r);

/// Two metric sets are bit-identical.
void check_same_metrics(const choir::core::ConsistencyMetrics& x,
                        const choir::core::ConsistencyMetrics& y,
                        const char* what);

/// Packet conservation of a record -> replay run: the recorded packets
/// are replayed once per run by every replayer, and the captures plus
/// the counted drops account for every replayed packet.
void check_conservation(const choir::testbed::ExperimentResult& r, int runs);

/// Per-flow κ of a sample of A's flows equals compare_trials on the
/// benchmark's own split of each flow's packets (flows matched by key).
void check_flow_sample(const choir::core::Trial& a,
                       const choir::trace::FlowClassification& cls_a,
                       const choir::core::Trial& b,
                       const choir::trace::FlowClassification& cls_b,
                       const choir::flow::FlowSetComparison& program,
                       std::span<const choir::flow::FlowId> sample);

/// The monitor saw every captured packet (`observed()` equals the sum of
/// the capture sizes) and each stream's exact finale equals the offline
/// compare_trials of the same captures (`offline`, B..E against A).
void check_monitor(const choir::monitor::StreamMonitor& monitor,
                   std::uint64_t captured,
                   std::span<const choir::core::ConsistencyMetrics> offline);

/// Seeded sample of `count` flow ids below `flows`.
std::vector<choir::flow::FlowId> sample_flows(std::uint64_t seed,
                                              std::size_t flows,
                                              std::size_t count);

}  // namespace perfbench
