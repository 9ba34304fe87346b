#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

namespace perfbench {

using choir::core::ComparisonResult;
using choir::core::ConsistencyMetrics;
using choir::core::PacketId;
using choir::core::Trial;
using choir::core::TrialPacket;

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool in_unit(double v) { return v >= 0.0 && v <= 1.0; }

/// Length of the longest strictly increasing subsequence (patience
/// sorting with binary search over pile tops).
std::size_t patience_lis_length(std::span<const std::uint32_t> seq) {
  std::vector<std::uint32_t> tops;  // smallest tail of each pile length
  for (const std::uint32_t v : seq) {
    const auto it = std::lower_bound(tops.begin(), tops.end(), v);
    if (it == tops.end()) {
      tops.push_back(v);
    } else {
      *it = v;
    }
  }
  return tops.size();
}

/// The benchmark's own split of one flow out of a trial, rebased to the
/// flow's first packet: the records whose flow key equals `key`.
Trial split_flow(const Trial& trial, const choir::trace::FlowClassification& cls,
                 const choir::flow::FlowKey& key) {
  require(cls.per_packet.size() == trial.size(),
          "classification does not parallel the trial");
  std::vector<TrialPacket> packets;
  for (std::size_t i = 0; i < trial.size(); ++i) {
    const choir::flow::FlowId id = cls.per_packet[i];
    if (id != choir::flow::kNoFlow && cls.table.key_of(id) == key) {
      packets.push_back(trial[i]);
    }
  }
  Trial out(std::move(packets));
  out.rebase_to_zero();
  return out;
}

}  // namespace

void check_eq5(const ConsistencyMetrics& m) {
  require(in_unit(m.uniqueness) && in_unit(m.ordering) && in_unit(m.latency) &&
              in_unit(m.iat) && in_unit(m.kappa),
          "a metric component lies outside [0, 1]");
  const double norm = std::sqrt(m.uniqueness * m.uniqueness +
                                m.ordering * m.ordering +
                                m.latency * m.latency + m.iat * m.iat);
  const double kappa = 1.0 - norm / 2.0;
  require(std::abs(kappa - m.kappa) <= 1e-12,
          "kappa " + num(m.kappa) + " != Eq. 5 of its components " + num(kappa));
}

IdIndex::IdIndex(const Trial& trial) {
  entries_.reserve(trial.size());
  for (std::uint32_t i = 0; i < trial.size(); ++i) {
    entries_.push_back(Entry{trial[i].id.hi, trial[i].id.lo, i});
  }
  std::sort(entries_.begin(), entries_.end(), [](const Entry& x, const Entry& y) {
    return x.hi != y.hi ? x.hi < y.hi : x.lo < y.lo;
  });
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    require(entries_[i].hi != entries_[i - 1].hi ||
                entries_[i].lo != entries_[i - 1].lo,
            "trial holds a duplicate packet id");
  }
}

std::int64_t IdIndex::find(const PacketId& id) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id, [](const Entry& e, const PacketId& k) {
        return e.hi != k.hi ? e.hi < k.hi : e.lo < k.lo;
      });
  if (it == entries_.end() || it->hi != id.hi || it->lo != id.lo) return -1;
  return it->pos;
}

void check_comparison(const Trial& a, const IdIndex& index_a, const Trial& b,
                      const ComparisonResult& r) {
  require(r.size_a == a.size() && r.size_b == b.size(), "trial sizes differ");
  std::vector<std::uint32_t> positions;  // matched A positions, in B order
  positions.reserve(b.size());
  double sum_l = 0.0;
  double sum_i = 0.0;
  const choir::Ns t_a0 = a.empty() ? 0 : a.first_time();
  const choir::Ns t_b0 = b.empty() ? 0 : b.first_time();
  for (std::size_t k = 0; k < b.size(); ++k) {
    const std::int64_t j = index_a.find(b[k].id);
    if (j < 0) continue;
    positions.push_back(static_cast<std::uint32_t>(j));
    const double l_a = static_cast<double>(a[j].time - t_a0);
    const double l_b = static_cast<double>(b[k].time - t_b0);
    const double g_a = j == 0 ? 0.0 : static_cast<double>(a[j].time - a[j - 1].time);
    const double g_b = k == 0 ? 0.0 : static_cast<double>(b[k].time - b[k - 1].time);
    sum_l += std::abs(l_a - l_b);
    sum_i += std::abs(g_a - g_b);
  }
  const std::size_t m = positions.size();
  require(r.common == m, "common " + std::to_string(r.common) +
                             " != own id matching " + std::to_string(m));
  const double total = static_cast<double>(a.size() + b.size());
  const double u = total > 0.0 ? 1.0 - 2.0 * static_cast<double>(m) / total : 0.0;
  require(r.metrics.uniqueness == u,
          "U " + num(r.metrics.uniqueness) + " != recomputed " + num(u));
  require(r.sum_abs_latency_delta_ns == sum_l,
          "sum |l_B - l_A| " + num(r.sum_abs_latency_delta_ns) +
              " != recomputed " + num(sum_l));
  require(r.sum_abs_iat_delta_ns == sum_i,
          "sum |g_B - g_A| " + num(r.sum_abs_iat_delta_ns) + " != recomputed " +
              num(sum_i));
  if (m > 0) {
    const double straddle = static_cast<double>(
        std::max(b.last_time() - t_a0, a.last_time() - t_b0));
    const double l = straddle > 0.0 ? sum_l / (static_cast<double>(m) * straddle) : 0.0;
    const double durations = static_cast<double>(b.duration() + a.duration());
    const double i = durations > 0.0 ? sum_i / durations : 0.0;
    require(r.metrics.latency == l,
            "L " + num(r.metrics.latency) + " != recomputed " + num(l));
    require(r.metrics.iat == i, "I " + num(r.metrics.iat) + " != recomputed " + num(i));
  }
  const std::size_t lis = patience_lis_length(positions);
  require(r.lcs_length == lis, "lcs_length " + std::to_string(r.lcs_length) +
                                   " != patience LIS " + std::to_string(lis));
  require((r.metrics.ordering == 0.0) == (lis == m),
          "O is " + num(r.metrics.ordering) + " with LCS " + std::to_string(lis) +
              " of " + std::to_string(m) + " common packets");
  check_eq5(r.metrics);
}

void check_same_metrics(const ConsistencyMetrics& x, const ConsistencyMetrics& y,
                        const char* what) {
  const double xs[] = {x.uniqueness, x.ordering, x.latency, x.iat, x.kappa};
  const double ys[] = {y.uniqueness, y.ordering, y.latency, y.iat, y.kappa};
  require(std::memcmp(xs, ys, sizeof(xs)) == 0,
          std::string(what) + ": kappa " + num(x.kappa) + " vs " + num(y.kappa));
}

void check_conservation(const choir::testbed::ExperimentResult& r, int runs) {
  require(r.capture_sizes.size() == static_cast<std::size_t>(runs),
          "capture count != runs");
  require(r.comparisons.size() == static_cast<std::size_t>(runs - 1),
          "comparison count != runs - 1");
  std::uint64_t replayed = 0;
  std::uint64_t recorded = 0;
  for (const auto& mb : r.middlebox_stats) {
    replayed += mb.replayed_packets;
    recorded += mb.recorded;
  }
  require(recorded == r.recorded_packets,
          "middlebox recorded " + std::to_string(recorded) + " != " +
              std::to_string(r.recorded_packets));
  require(replayed == static_cast<std::uint64_t>(runs) * r.recorded_packets,
          "replayed " + std::to_string(replayed) + " != runs x recorded " +
              std::to_string(static_cast<std::uint64_t>(runs) * r.recorded_packets));
  std::uint64_t captured = 0;
  for (const std::size_t n : r.capture_sizes) {
    require(n <= r.recorded_packets, "a capture holds more than was recorded");
    captured += n;
  }
  const std::uint64_t drops = r.recorder_rx_drops + r.recorder_imissed +
                              r.switch_queue_drops + r.replay_tx_drops;
  require(captured + drops == replayed,
          "captured " + std::to_string(captured) + " + drops " +
              std::to_string(drops) + " != replayed " + std::to_string(replayed));
  for (const auto& c : r.comparisons) check_eq5(c.metrics);
}

void check_monitor(const choir::monitor::StreamMonitor& monitor,
                   std::uint64_t captured, std::span<const ConsistencyMetrics> offline) {
  require(monitor.observed() == captured,
          "monitor observed " + std::to_string(monitor.observed()) +
              " packets, captures hold " + std::to_string(captured));
  const auto& streams = monitor.streams();
  require(streams.size() == offline.size(), "monitor closed the wrong number of streams");
  for (std::size_t i = 0; i < offline.size(); ++i) {
    check_same_metrics(streams[i].metrics, offline[i],
                       "monitor finale vs offline compare_trials");
  }
}

std::vector<choir::flow::FlowId> sample_flows(std::uint64_t seed, std::size_t flows,
                                              std::size_t count) {
  std::vector<choir::flow::FlowId> out;
  std::uint64_t state = seed ^ 0x464c4f5753ULL;
  for (std::size_t i = 0; i < count && flows > 0; ++i) {
    out.push_back(static_cast<choir::flow::FlowId>(splitmix64(state) % flows));
  }
  return out;
}

void check_flow_sample(const Trial& a, const choir::trace::FlowClassification& cls_a,
                       const Trial& b, const choir::trace::FlowClassification& cls_b,
                       const choir::flow::FlowSetComparison& program,
                       std::span<const choir::flow::FlowId> sample) {
  for (const choir::flow::FlowId f : sample) {
    require(f < program.flows.size(), "sampled flow missing from the result");
    const choir::flow::FlowKey& key = cls_a.table.key_of(f);
    const Trial fa = split_flow(a, cls_a, key);
    const Trial fb = split_flow(b, cls_b, key);
    const choir::flow::FlowComparison& fc = program.flows[f];
    require(fc.packets_a == fa.size() && fc.packets_b == fb.size(),
            "flow " + std::to_string(f) + " packet counts differ from own split");
    ConsistencyMetrics expect;
    if (!fa.empty() && !fb.empty()) {
      expect = choir::core::compare_trials(fa, fb).metrics;
    } else if (!fa.empty() || !fb.empty()) {
      expect.uniqueness = 1.0;  // one-sided flow: Eq. 5 against an empty trial
      expect.kappa = 0.5;
    }
    check_same_metrics(fc.metrics, expect, "per-flow kappa vs own split");
  }
}

}  // namespace perfbench
