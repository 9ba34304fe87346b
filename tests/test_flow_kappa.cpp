// Per-flow κ and cross-flow aggregation semantics: matched flows run the
// exact Eq. 5 comparison on their own timebase, one-sided flows grade as
// κ = 0.5 (Eq. 5 against an empty trial), and the aggregate's p90/p99
// read the LOW tail of the ascending κ sample (the value 90%/99% of
// flows meet or exceed). Job-count bit-identity is asserted because the
// bench JSON byte gate depends on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "flow/flow_demux.hpp"
#include "flow/flow_kappa.hpp"

namespace choir::flow {
namespace {

core::TrialPacket packet(std::uint64_t seq, Ns time) {
  return {core::PacketId{0xF10F, seq}, time};
}

/// Hand-built comparison row with a pinned κ and packet weight.
FlowComparison row(double kappa, std::uint32_t packets_each) {
  FlowComparison fc;
  fc.in_a = fc.in_b = true;
  fc.packets_a = fc.packets_b = packets_each;
  fc.metrics.kappa = kappa;
  return fc;
}

TEST(FlowKappa, IdenticalTrialsScorePerfectEverywhere) {
  std::vector<core::TrialPacket> packets;
  std::vector<FlowId> ids;
  for (std::uint64_t i = 0; i < 300; ++i) {
    packets.push_back(packet(i, static_cast<Ns>(i) * 1000));
    ids.push_back(static_cast<FlowId>(i % 3));
  }
  const core::Trial trial(packets);
  const auto cmp = compare_flows_by_id(trial, ids, trial, ids, 3);
  EXPECT_EQ(cmp.aggregate.flows, 3u);
  EXPECT_EQ(cmp.aggregate.matched, 3u);
  EXPECT_EQ(cmp.aggregate.only_a, 0u);
  EXPECT_EQ(cmp.aggregate.only_b, 0u);
  EXPECT_EQ(cmp.aggregate.worst, 1.0);
  EXPECT_EQ(cmp.aggregate.p50, 1.0);
  EXPECT_EQ(cmp.aggregate.p99, 1.0);
  EXPECT_EQ(cmp.aggregate.weighted_mean, 1.0);
  for (const auto& fc : cmp.flows) {
    EXPECT_TRUE(fc.matched());
    EXPECT_EQ(fc.metrics.kappa, 1.0);
    EXPECT_EQ(fc.packets_a, 100u);
  }
}

TEST(FlowKappa, OneSidedFlowGradesAsHalf) {
  // Flow 1 exists only in A (wholly dropped), flow 2 only in B (wholly
  // extra). Both grade U = 1, O = L = I = 0 → κ = 0.5 and stay in the
  // aggregate with their one-sided packet weight.
  core::Trial a({packet(0, 0), packet(1, 1000), packet(2, 2000)});
  const std::vector<FlowId> ids_a = {0, 1, 1};
  core::Trial b({packet(0, 0), packet(9, 1000)});
  const std::vector<FlowId> ids_b = {0, 2};

  const auto cmp = compare_flows_by_id(a, ids_a, b, ids_b, 3);
  EXPECT_EQ(cmp.aggregate.flows, 3u);
  EXPECT_EQ(cmp.aggregate.matched, 1u);
  EXPECT_EQ(cmp.aggregate.only_a, 1u);
  EXPECT_EQ(cmp.aggregate.only_b, 1u);

  EXPECT_EQ(cmp.flows[0].metrics.kappa, 1.0);
  EXPECT_EQ(cmp.flows[1].metrics.kappa, 0.5);
  EXPECT_EQ(cmp.flows[1].metrics.uniqueness, 1.0);
  EXPECT_EQ(cmp.flows[1].packets_a, 2u);
  EXPECT_EQ(cmp.flows[1].packets_b, 0u);
  EXPECT_EQ(cmp.flows[2].metrics.kappa, 0.5);
  EXPECT_EQ(cmp.aggregate.worst, 0.5);
  // Weighted mean: (1*2 + 0.5*2 + 0.5*1) / 5.
  EXPECT_DOUBLE_EQ(cmp.aggregate.weighted_mean, (2.0 + 1.0 + 0.5) / 5.0);
}

TEST(FlowKappa, AggregatePercentilesReadTheLowTail) {
  // 100 flows at κ = 0.01 .. 1.00: p90 must report the value 90% of
  // flows are at-or-above — the 10th percentile of the ascending
  // sample — and p99 the 1st.
  std::vector<FlowComparison> flows;
  std::vector<double> kappas;
  for (int i = 1; i <= 100; ++i) {
    flows.push_back(row(i / 100.0, 10));
    kappas.push_back(i / 100.0);
  }
  const FlowAggregate agg = aggregate_flows(flows);
  EXPECT_EQ(agg.flows, 100u);
  EXPECT_EQ(agg.worst, 0.01);
  EXPECT_DOUBLE_EQ(agg.p50, stats::percentile_sorted(kappas, 50.0));
  EXPECT_DOUBLE_EQ(agg.p90, stats::percentile_sorted(kappas, 10.0));
  EXPECT_DOUBLE_EQ(agg.p99, stats::percentile_sorted(kappas, 1.0));
  EXPECT_DOUBLE_EQ(agg.p999, stats::p999_low_sorted(kappas));
  EXPECT_LT(agg.p99, agg.p90);  // tail ordering: p99 is the worse value
  EXPECT_LT(agg.p90, agg.p50);
  EXPECT_LE(agg.p999, agg.p99);  // the extreme tail is at least as bad
  EXPECT_LE(agg.worst, agg.p999);
  EXPECT_DOUBLE_EQ(agg.mean, 0.505);
  EXPECT_DOUBLE_EQ(agg.weighted_mean, 0.505);  // uniform weights
}

TEST(FlowKappa, WeightedMeanFollowsPacketCounts) {
  // A heavy perfect flow and a light broken one: the weighted mean must
  // sit near the heavy flow, the plain mean halfway.
  const std::vector<FlowComparison> flows = {row(1.0, 90), row(0.5, 10)};
  const FlowAggregate agg = aggregate_flows(flows);
  EXPECT_DOUBLE_EQ(agg.mean, 0.75);
  EXPECT_DOUBLE_EQ(agg.weighted_mean, (180.0 + 10.0) / 200.0);
  EXPECT_EQ(agg.worst, 0.5);
}

TEST(FlowKappa, RetiredIdsAreSkippedAndEmptySetIsVacuouslyConsistent) {
  FlowComparison retired;  // in neither trial: a retired id slot
  const std::vector<FlowComparison> flows = {retired};
  const FlowAggregate agg = aggregate_flows(flows);
  EXPECT_EQ(agg.flows, 0u);
  EXPECT_EQ(agg.worst, 1.0);
  EXPECT_EQ(agg.p99, 1.0);
  EXPECT_EQ(agg.p999, 1.0);
  EXPECT_EQ(agg.weighted_mean, 1.0);
}

TEST(FlowKappa, JobCountDoesNotChangeASingleBit) {
  // Enough flows to span several kFlowsPerTask chunks, with per-flow
  // jitter so the metrics are non-trivial.
  std::vector<core::TrialPacket> pa, pb;
  std::vector<FlowId> ids;
  constexpr std::size_t kFlows = 3000;
  constexpr std::size_t kPackets = 12000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    const Ns t = static_cast<Ns>(i) * 500;
    pa.push_back(packet(i, t));
    // B: same packets, timing jittered deterministically per packet.
    pb.push_back(packet(i, t + static_cast<Ns>((i * 37) % 23)));
    ids.push_back(static_cast<FlowId>(i % kFlows));
  }
  const core::Trial a(std::move(pa));
  const core::Trial b(std::move(pb));
  const auto seq = compare_flows_by_id(a, ids, b, ids, kFlows, /*jobs=*/1);
  const auto par = compare_flows_by_id(a, ids, b, ids, kFlows, /*jobs=*/4);

  ASSERT_EQ(seq.flows.size(), par.flows.size());
  for (std::size_t f = 0; f < seq.flows.size(); ++f) {
    EXPECT_EQ(seq.flows[f].metrics.kappa, par.flows[f].metrics.kappa);
    EXPECT_EQ(seq.flows[f].metrics.uniqueness,
              par.flows[f].metrics.uniqueness);
    EXPECT_EQ(seq.flows[f].metrics.ordering, par.flows[f].metrics.ordering);
    EXPECT_EQ(seq.flows[f].metrics.iat, par.flows[f].metrics.iat);
    EXPECT_EQ(seq.flows[f].metrics.latency, par.flows[f].metrics.latency);
  }
  EXPECT_EQ(seq.aggregate.worst, par.aggregate.worst);
  EXPECT_EQ(seq.aggregate.p50, par.aggregate.p50);
  EXPECT_EQ(seq.aggregate.p90, par.aggregate.p90);
  EXPECT_EQ(seq.aggregate.p99, par.aggregate.p99);
  EXPECT_EQ(seq.aggregate.weighted_mean, par.aggregate.weighted_mean);
}

TEST(FlowKappa, CompareByKeyRemapsBIntoAsIdSpace) {
  // Two tables classified the same two keys in opposite arrival order;
  // compare_flows must match them by key, not by raw id.
  FlowKey k0{.src_ip = 1, .dst_ip = 2, .src_port = 10, .dst_port = 20};
  FlowKey k1{.src_ip = 1, .dst_ip = 2, .src_port = 11, .dst_port = 20};
  FlowTable ta, tb;
  ta.classify(k0, 64, 0, 0);  // A: k0 -> 0, k1 -> 1
  ta.classify(k1, 64, 1, 1);
  tb.classify(k1, 64, 0, 0);  // B: k1 -> 0, k0 -> 1
  tb.classify(k0, 64, 1, 1);

  core::Trial a({packet(0, 0), packet(1, 1000)});
  core::Trial b({packet(1, 0), packet(0, 1000)});
  const std::vector<FlowId> ids_a = {0, 1};  // k0 then k1
  const std::vector<FlowId> ids_b = {0, 1};  // k1 then k0

  const auto cmp = compare_flows(a, ta, ids_a, b, tb, ids_b);
  EXPECT_EQ(cmp.aggregate.matched, 2u);
  EXPECT_EQ(cmp.aggregate.only_a, 0u);
  EXPECT_EQ(cmp.aggregate.only_b, 0u);
  EXPECT_EQ(cmp.flows[0].key, k0);
  EXPECT_EQ(cmp.flows[1].key, k1);
  // Each flow is a single identical packet on its own timebase: perfect.
  EXPECT_EQ(cmp.aggregate.worst, 1.0);
}

// ---- Fused per-flow path vs. the literal demux + compare_trials -------

/// Two trials over one flow-id space with everything the fused path must
/// get right: unclassified packets, retired ids, flows on one side only,
/// reordering, loss, extras, jitter, packets whose flow differs between
/// the trials, and (when `shared_ids`) one packet id carried by two
/// flows.
struct FlowCase {
  core::Trial a, b;
  std::vector<FlowId> ids_a, ids_b;
  std::size_t flow_count = 0;
};

FlowCase random_case(Rng& rng, std::size_t flows, std::size_t packets,
                     bool shared_ids) {
  FlowCase c;
  c.flow_count = flows;
  // Ids >= flows - flows/8 never carry a packet in A (retired, or
  // B-only below); flow 0 is wholly dropped from B.
  const std::size_t live = flows - flows / 8;
  std::vector<core::TrialPacket> pa;
  Ns t = 0;
  for (std::uint64_t seq = 0; seq < packets; ++seq) {
    t += 100 + static_cast<Ns>(rng.uniform_u64(200));
    std::uint64_t id = seq;
    if (shared_ids && seq > 8 && rng.chance(0.05)) {
      id = rng.uniform_u64(seq);  // the same id again, most likely elsewhere
    }
    FlowId f = static_cast<FlowId>(rng.uniform_u64(live));
    if (rng.chance(0.02)) f = kNoFlow;
    // A reused id must not land twice in one flow (that is a duplicate).
    if (shared_ids && id != seq) {
      for (std::size_t i = 0; i < pa.size(); ++i) {
        if (pa[i].id.lo == id && c.ids_a[i] == f) f = kNoFlow;
      }
    }
    pa.push_back(packet(id, t));
    c.ids_a.push_back(f);
  }
  // A flow for a B-side packet that keeps flow 0 A-only.
  const auto b_flow = [&rng, flows] {
    return static_cast<FlowId>(flows > 1 ? 1 + rng.uniform_u64(flows - 1) : 0);
  };
  std::vector<core::TrialPacket> pb;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (c.ids_a[i] == 0 || rng.chance(0.05)) continue;  // flow 0: A only
    pb.push_back({pa[i].id, pa[i].time + static_cast<Ns>(rng.uniform_u64(90))});
    // Mostly the A flow; sometimes reclassified, which makes the packet
    // missing from its A flow and extra in its B flow.
    c.ids_b.push_back(rng.chance(0.02) ? b_flow() : c.ids_a[i]);
    if (rng.chance(0.03)) {  // an extra, possibly in a B-only flow
      pb.push_back({core::PacketId{0xE, pb.size()}, pb.back().time + 7});
      c.ids_b.push_back(b_flow());
    }
  }
  for (std::size_t i = 0; i + 1 < pb.size(); ++i) {
    if (rng.chance(0.08)) {
      std::swap(pb[i].id, pb[i + 1].id);
      std::swap(c.ids_b[i], c.ids_b[i + 1]);
    }
  }
  c.a = core::Trial(std::move(pa));
  c.b = core::Trial(std::move(pb));
  return c;
}

/// The definition the fused path must reproduce: demux both trials into
/// rebased per-flow trials and run compare_trials on each matched pair;
/// the aggregate from a full sort.
FlowSetComparison reference_compare(const FlowCase& c) {
  const DemuxResult da =
      demux_trial(c.a, c.ids_a, c.flow_count, {.rebase = true});
  const DemuxResult db =
      demux_trial(c.b, c.ids_b, c.flow_count, {.rebase = true});
  FlowSetComparison out;
  out.unclassified_a = da.unclassified;
  out.unclassified_b = db.unclassified;
  out.flows.resize(c.flow_count);
  std::vector<double> kappas;
  double sum = 0.0, weighted = 0.0, weight_total = 0.0;
  for (std::size_t f = 0; f < c.flow_count; ++f) {
    FlowComparison& fc = out.flows[f];
    fc.id = static_cast<FlowId>(f);
    fc.packets_a = static_cast<std::uint32_t>(da.trials[f].size());
    fc.packets_b = static_cast<std::uint32_t>(db.trials[f].size());
    fc.in_a = fc.packets_a > 0;
    fc.in_b = fc.packets_b > 0;
    if (fc.matched()) {
      fc.metrics = core::compare_trials(da.trials[f], db.trials[f]).metrics;
    } else if (fc.in_a || fc.in_b) {
      fc.metrics.uniqueness = 1.0;
      fc.metrics.kappa = core::kappa_of(1.0, 0.0, 0.0, 0.0);
    }
    if (!fc.in_a && !fc.in_b) continue;
    FlowAggregate& agg = out.aggregate;
    ++agg.flows;
    agg.matched += fc.matched() ? 1 : 0;
    agg.only_a += fc.in_a && !fc.in_b ? 1 : 0;
    agg.only_b += fc.in_b && !fc.in_a ? 1 : 0;
    kappas.push_back(fc.metrics.kappa);
    sum += fc.metrics.kappa;
    const double w = static_cast<double>(fc.packets_a) + fc.packets_b;
    weighted += w * fc.metrics.kappa;
    weight_total += w;
  }
  FlowAggregate& agg = out.aggregate;
  if (kappas.empty()) {
    agg.worst = agg.p50 = agg.p90 = agg.p99 = agg.p999 = 1.0;
    agg.weighted_mean = agg.mean = 1.0;
    return out;
  }
  std::sort(kappas.begin(), kappas.end());
  agg.worst = kappas.front();
  agg.p50 = stats::percentile_sorted(kappas, 50.0);
  agg.p90 = stats::percentile_sorted(kappas, 10.0);
  agg.p99 = stats::percentile_sorted(kappas, 1.0);
  agg.p999 = stats::p999_low_sorted(kappas);
  agg.weighted_mean = weight_total > 0.0 ? weighted / weight_total : 1.0;
  agg.mean = sum / static_cast<double>(kappas.size());
  return out;
}

void expect_bit_equal(const FlowSetComparison& x, const FlowSetComparison& y) {
  EXPECT_EQ(x.unclassified_a, y.unclassified_a);
  EXPECT_EQ(x.unclassified_b, y.unclassified_b);
  ASSERT_EQ(x.flows.size(), y.flows.size());
  for (std::size_t f = 0; f < x.flows.size(); ++f) {
    const FlowComparison& p = x.flows[f];
    const FlowComparison& q = y.flows[f];
    EXPECT_EQ(p.key, q.key) << "flow " << f;
    EXPECT_EQ(p.id, q.id) << "flow " << f;
    EXPECT_EQ(p.packets_a, q.packets_a) << "flow " << f;
    EXPECT_EQ(p.packets_b, q.packets_b) << "flow " << f;
    EXPECT_EQ(p.in_a, q.in_a) << "flow " << f;
    EXPECT_EQ(p.in_b, q.in_b) << "flow " << f;
    EXPECT_EQ(p.metrics.uniqueness, q.metrics.uniqueness) << "flow " << f;
    EXPECT_EQ(p.metrics.ordering, q.metrics.ordering) << "flow " << f;
    EXPECT_EQ(p.metrics.latency, q.metrics.latency) << "flow " << f;
    EXPECT_EQ(p.metrics.iat, q.metrics.iat) << "flow " << f;
    EXPECT_EQ(p.metrics.kappa, q.metrics.kappa) << "flow " << f;
  }
  const FlowAggregate& p = x.aggregate;
  const FlowAggregate& q = y.aggregate;
  EXPECT_EQ(p.flows, q.flows);
  EXPECT_EQ(p.matched, q.matched);
  EXPECT_EQ(p.only_a, q.only_a);
  EXPECT_EQ(p.only_b, q.only_b);
  EXPECT_EQ(p.worst, q.worst);
  EXPECT_EQ(p.p50, q.p50);
  EXPECT_EQ(p.p90, q.p90);
  EXPECT_EQ(p.p99, q.p99);
  EXPECT_EQ(p.p999, q.p999);
  EXPECT_EQ(p.weighted_mean, q.weighted_mean);
  EXPECT_EQ(p.mean, q.mean);
}

/// The parenthesized reason of a choir::Error ("... (reason)"), or
/// "no error" when `fn` returns normally.
std::string error_reason(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::size_t open = what.rfind('(');
    return open == std::string::npos ? what : what.substr(open);
  }
  return "no error";
}

TEST(FlowKappa, FusedMatchesPerFlowCompareTrials) {
  Rng rng(0xF1F0);
  FlowCompareArena reused;  // one arena across every size, up and down
  FlowSetComparison reused_out;
  const std::size_t shapes[][2] = {{1, 0},     {1, 40},   {7, 300},
                                   {300, 2500}, {64, 64},  {2500, 9000},
                                   {3, 5000},  {1500, 700}};
  for (int round = 0; round < 16; ++round) {
    const auto& shape = shapes[round % std::size(shapes)];
    const FlowCase c = random_case(rng, shape[0], shape[1],
                                   /*shared_ids=*/round % 2 == 1);
    SCOPED_TRACE("round " + std::to_string(round));
    const FlowSetComparison want = reference_compare(c);
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      expect_bit_equal(
          compare_flows_by_id(c.a, c.ids_a, c.b, c.ids_b, c.flow_count, jobs),
          want);
    }
    compare_flows_by_id(c.a.packets(), c.ids_a, c.b.packets(), c.ids_b,
                        c.flow_count, 1, reused, &reused_out);
    expect_bit_equal(reused_out, want);

    // Supplied whole-trial matches (ids unique per side) take the same
    // result as the flat index.
    if (round % 2 == 0) {
      std::map<std::uint64_t, std::uint32_t> where;
      for (std::uint32_t j = 0; j < c.a.size(); ++j) where[c.a[j].id.lo] = j;
      std::vector<std::uint32_t> b_to_a;
      for (std::size_t k = 0; k < c.b.size(); ++k) {
        const auto it = c.b[k].id.hi == 0xF10F ? where.find(c.b[k].id.lo)
                                               : where.end();
        b_to_a.push_back(it == where.end() ? core::ReferenceIndex::kNoIndex
                                           : it->second);
      }
      if (!b_to_a.empty()) {
        compare_flows_by_id(c.a.packets(), c.ids_a, c.b.packets(), c.ids_b,
                            c.flow_count, 1, reused, &reused_out, b_to_a);
        expect_bit_equal(reused_out, want);
      }
    }
  }
}

TEST(FlowKappa, FusedDuplicateErrorsMatchPerFlowCompareTrials) {
  // compare_trials on a flow pair throws on a duplicate id inside either
  // flow (A's check first), only for flows present on both sides, and
  // the per-flow loop stops at the lowest such flow. The fused path
  // must raise the same reason for the same inputs, at jobs 1 and 4.
  Rng rng(0xD0D0);
  const FlowCase base = random_case(rng, 40, 2000, /*shared_ids=*/false);
  auto first_of_flow = [](const std::vector<FlowId>& ids, FlowId f) {
    return static_cast<std::size_t>(
        std::find(ids.begin(), ids.end(), f) - ids.begin());
  };
  auto with_duplicate = [&](FlowCase c, bool in_a, FlowId f) {
    core::Trial& t = in_a ? c.a : c.b;
    std::vector<FlowId>& ids = in_a ? c.ids_a : c.ids_b;
    std::vector<core::TrialPacket> packets = t.packets();
    packets.push_back({packets[first_of_flow(ids, f)].id, 1'000'000'000});
    ids.push_back(f);
    t = core::Trial(std::move(packets));
    return c;
  };
  std::vector<FlowCase> cases;
  cases.push_back(with_duplicate(base, true, 5));    // A, matched flow
  cases.push_back(with_duplicate(base, false, 5));   // B, id also in A
  cases.push_back(with_duplicate(base, true, 0));    // A, flow 0 is A-only
  cases.push_back(with_duplicate(with_duplicate(base, true, 9), false, 3));
  cases.push_back(with_duplicate(with_duplicate(base, false, 9), true, 3));
  {  // B, a B-only id: two copies of one extra in a matched flow
    FlowCase c = base;
    std::vector<core::TrialPacket> packets = c.b.packets();
    for (int copy = 0; copy < 2; ++copy) {
      packets.push_back({core::PacketId{0xE, 999'999}, 2'000'000'000});
      c.ids_b.push_back(7);
    }
    c.b = core::Trial(std::move(packets));
    cases.push_back(c);
  }
  const std::string expected[] = {
      "(trial A contains duplicate packet ids)",
      "(trial B contains duplicate packet ids)",
      "no error",
      "(trial B contains duplicate packet ids)",
      "(trial A contains duplicate packet ids)",
      "(trial B contains duplicate packet ids)"};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FlowCase& c = cases[i];
    SCOPED_TRACE("case " + std::to_string(i));
    const std::string want =
        error_reason([&] { (void)reference_compare(c); });
    EXPECT_EQ(want, expected[i]);
    for (const int jobs : {1, 4}) {
      EXPECT_EQ(error_reason([&] {
                  (void)compare_flows_by_id(c.a, c.ids_a, c.b, c.ids_b,
                                            c.flow_count, jobs);
                }),
                want);
    }
  }
}

}  // namespace
}  // namespace choir::flow
