// Tests for the comparison arena (core/compare_scratch.hpp): the flat
// open-addressing ReferenceIndex, the reused CompareScratch, and their
// contracts — bit-identical results to the allocating overloads, the
// same duplicate-id diagnostics, and zero buffer growth in steady
// state.
#include "core/compare_scratch.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "core/lis.hpp"
#include "core/metrics.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"

namespace choir::core {
namespace {

Trial random_trial(Rng& rng, std::size_t n, double jitter_sigma,
                   std::size_t swaps, std::size_t drops = 0) {
  Trial t;
  t.reserve(n);
  Ns now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (drops > 0 && rng.uniform_u64(n) < drops) continue;
    t.push_back(TrialPacket{PacketId{1, i},
                            now + static_cast<Ns>(rng.normal(0.0, jitter_sigma))});
    now += 280;
  }
  std::vector<TrialPacket> pkts = t.packets();
  if (pkts.size() > 1) {
    for (std::size_t s = 0; s < swaps; ++s) {
      const std::size_t i = rng.uniform_u64(pkts.size() - 1);
      std::swap(pkts[i].id, pkts[i + 1].id);
    }
  }
  return Trial(std::move(pkts));
}

void expect_same_result(const ComparisonResult& x, const ComparisonResult& y) {
  // Bitwise equality: the arena overload promises identical output, not
  // merely close output (byte-deterministic artifacts depend on it).
  EXPECT_EQ(x.metrics.uniqueness, y.metrics.uniqueness);
  EXPECT_EQ(x.metrics.ordering, y.metrics.ordering);
  EXPECT_EQ(x.metrics.latency, y.metrics.latency);
  EXPECT_EQ(x.metrics.iat, y.metrics.iat);
  EXPECT_EQ(x.metrics.kappa, y.metrics.kappa);
  EXPECT_EQ(x.size_a, y.size_a);
  EXPECT_EQ(x.size_b, y.size_b);
  EXPECT_EQ(x.common, y.common);
  EXPECT_EQ(x.lcs_length, y.lcs_length);
  EXPECT_EQ(x.moved, y.moved);
  EXPECT_EQ(x.sum_abs_latency_delta_ns, y.sum_abs_latency_delta_ns);
  EXPECT_EQ(x.sum_abs_iat_delta_ns, y.sum_abs_iat_delta_ns);
  EXPECT_EQ(x.sum_abs_move_distance, y.sum_abs_move_distance);
}

TEST(ReferenceIndex, LookupFindsEveryPacket) {
  Rng rng(11);
  const Trial a = random_trial(rng, 1000, 5.0, 0);
  const ReferenceIndex index(a);
  EXPECT_EQ(index.size(), a.size());
  for (std::uint32_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(index.lookup(a[j].id), j);
  }
  EXPECT_EQ(index.lookup(PacketId{99, 99}), ReferenceIndex::kNoIndex);
}

TEST(ReferenceIndex, EmptyIndexFindsNothing) {
  ReferenceIndex index;
  EXPECT_EQ(index.lookup(PacketId{1, 1}), ReferenceIndex::kNoIndex);
  EXPECT_EQ(index.size(), 0u);
}

TEST(ReferenceIndex, CollisionChainsResolve) {
  // Force hash collisions: for a 4-packet trial the table capacity is
  // 16, so scan for ids landing in the same masked bucket and index
  // only those. Linear probing must still resolve every one.
  const std::size_t mask = 15;
  const std::size_t want_bucket = PacketIdHash{}(PacketId{7, 0}) & mask;
  Trial a;
  a.push_back(TrialPacket{PacketId{7, 0}, 0});
  for (std::uint64_t lo = 1; a.size() < 4 && lo < 100000; ++lo) {
    const PacketId id{7, lo};
    if ((PacketIdHash{}(id) & mask) == want_bucket) {
      a.push_back(TrialPacket{id, static_cast<Ns>(a.size()) * 100});
    }
  }
  ASSERT_EQ(a.size(), 4u);
  const ReferenceIndex index(a);
  for (std::uint32_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(index.lookup(a[j].id), j);
  }
  // A missing id hashing to the same crowded bucket walks the chain and
  // still reports absence.
  for (std::uint64_t lo = 100000; lo < 200000; ++lo) {
    const PacketId id{7, lo};
    if ((PacketIdHash{}(id) & mask) == want_bucket) {
      EXPECT_EQ(index.lookup(id), ReferenceIndex::kNoIndex);
      break;
    }
  }
}

TEST(ReferenceIndex, DuplicateIdThrows) {
  Trial a;
  a.push_back(TrialPacket{PacketId{1, 1}, 0});
  a.push_back(TrialPacket{PacketId{1, 2}, 100});
  a.push_back(TrialPacket{PacketId{1, 1}, 200});
  EXPECT_THROW(ReferenceIndex{a}, Error);
}

TEST(ReferenceIndex, RebuildReusesStorage) {
  Rng rng(12);
  const Trial big = random_trial(rng, 2000, 0.0, 0);
  const Trial small = random_trial(rng, 500, 0.0, 0);
  ReferenceIndex index;
  EXPECT_TRUE(index.rebuild(big));     // first build allocates
  EXPECT_FALSE(index.rebuild(small));  // fits in existing storage
  EXPECT_FALSE(index.rebuild(big));    // capacity was retained
  for (std::uint32_t j = 0; j < big.size(); ++j) {
    EXPECT_EQ(index.lookup(big[j].id), j);
  }
}

TEST(CompareScratch, DuplicateInBThrows) {
  Rng rng(13);
  const Trial a = random_trial(rng, 50, 0.0, 0);
  CompareScratch scratch;

  // Duplicate of an id that exists in A.
  Trial b1 = a;
  b1.push_back(TrialPacket{a[3].id, 99999});
  EXPECT_THROW(compare_trials(a, b1, {}, scratch), Error);

  // Duplicate of a B-only id (absent from A).
  Trial b2 = a;
  b2.push_back(TrialPacket{PacketId{9, 1}, 99999});
  b2.push_back(TrialPacket{PacketId{9, 1}, 99998});
  EXPECT_THROW(compare_trials(a, b2, {}, scratch), Error);

  // The scratch survives the throws and still compares correctly.
  const auto r = compare_trials(a, a, {}, scratch);
  EXPECT_EQ(r.metrics.kappa, 1.0);
}

TEST(CompareScratch, ReuseMatchesFreshScratch) {
  Rng rng(14);
  CompareScratch reused;
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = 100 + static_cast<std::size_t>(round) * 150;
    const Trial a = random_trial(rng, n, 0.0, 0);
    const Trial b = random_trial(rng, n, 12.0, n / 6, /*drops=*/3);
    CompareScratch fresh;
    expect_same_result(compare_trials(a, b, {}, fresh),
                       compare_trials(a, b, {}, reused));
  }
  EXPECT_EQ(reused.comparisons, 12u);
}

TEST(CompareScratch, MatchesAllocatingOverload) {
  Rng rng(15);
  CompareScratch scratch;
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 200 + static_cast<std::size_t>(round) * 300;
    const Trial a = random_trial(rng, n, 0.0, 0);
    const Trial b = random_trial(rng, n, 15.0, n / 4, /*drops=*/2);
    ComparisonOptions options;
    options.collect_series = (round % 2 == 0);
    options.collect_alignment = (round % 3 == 0);
    const auto plain = compare_trials(a, b, options);
    const auto arena = compare_trials(a, b, options, scratch);
    expect_same_result(plain, arena);
    ASSERT_EQ(plain.series.iat_delta_ns.size(),
              arena.series.iat_delta_ns.size());
    EXPECT_EQ(plain.series.iat_delta_ns, arena.series.iat_delta_ns);
    EXPECT_EQ(plain.series.latency_delta_ns, arena.series.latency_delta_ns);
    EXPECT_EQ(plain.series.move_distance, arena.series.move_distance);
    ASSERT_EQ(plain.alignment.matches.size(), arena.alignment.matches.size());
    EXPECT_EQ(plain.alignment.lcs_length, arena.alignment.lcs_length);
    EXPECT_EQ(plain.alignment.total_abs_displacement(),
              arena.alignment.total_abs_displacement());
  }
}

TEST(CompareScratch, SharedRefMatchesOwnRebuild) {
  Rng rng(16);
  const Trial a = random_trial(rng, 1500, 0.0, 0);
  const ReferenceIndex shared(a);
  CompareScratch with_shared;
  with_shared.shared_ref = &shared;
  CompareScratch own;
  for (int round = 0; round < 4; ++round) {
    const Trial b = random_trial(rng, 1500, 10.0, 200, /*drops=*/2);
    expect_same_result(compare_trials(a, b, {}, own),
                       compare_trials(a, b, {}, with_shared));
  }
}

TEST(CompareScratch, SharedRefSizeMismatchThrows) {
  Rng rng(17);
  const Trial a = random_trial(rng, 100, 0.0, 0);
  const Trial other = random_trial(rng, 50, 0.0, 0);
  const ReferenceIndex index(other);
  CompareScratch scratch;
  scratch.shared_ref = &index;
  EXPECT_THROW(compare_trials(a, a, {}, scratch), Error);
}

TEST(CompareScratch, SteadyStateDoesNotGrow) {
  // The zero-allocation contract: once the scratch has seen the working
  // size, further metrics-only comparisons never grow any buffer. Every
  // internal arena counts its growth events, so this is directly
  // observable without an allocator hook.
  Rng rng(18);
  const Trial a = random_trial(rng, 4096, 0.0, 0);
  CompareScratch scratch;
  compare_trials(a, random_trial(rng, 4096, 15.0, 512), {}, scratch);
  const std::uint64_t warm = scratch.total_grows();
  EXPECT_GT(warm, 0u);
  for (int round = 0; round < 10; ++round) {
    compare_trials(a, random_trial(rng, 4096, 15.0, 512, /*drops=*/1), {},
                   scratch);
  }
  EXPECT_EQ(scratch.total_grows(), warm);
  EXPECT_EQ(scratch.comparisons, 11u);
}

TEST(CompareScratch, StoredDisplacementMatchesMoveSum) {
  Rng rng(19);
  const Trial a = random_trial(rng, 800, 0.0, 0);
  const Trial b = random_trial(rng, 800, 10.0, 300);
  ComparisonOptions options;
  options.collect_alignment = true;
  const auto r = compare_trials(a, b, options);
  double sum = 0.0;
  for (const Move& m : r.alignment.moves) {
    sum += static_cast<double>(m.displacement < 0 ? -m.displacement
                                                  : m.displacement);
  }
  // Integer-valued doubles, so the stored accessor is exactly the
  // re-summed value — not just close.
  EXPECT_EQ(r.alignment.total_abs_displacement(), sum);
  EXPECT_EQ(r.sum_abs_move_distance, sum);
}

void expect_same_alignment(const Alignment& x, const Alignment& y) {
  EXPECT_EQ(x.size_a, y.size_a);
  EXPECT_EQ(x.size_b, y.size_b);
  EXPECT_EQ(x.lcs_length, y.lcs_length);
  EXPECT_EQ(x.sum_abs_displacement, y.sum_abs_displacement);
  ASSERT_EQ(x.matches.size(), y.matches.size());
  for (std::size_t k = 0; k < x.matches.size(); ++k) {
    EXPECT_EQ(x.matches[k].index_a, y.matches[k].index_a) << k;
    EXPECT_EQ(x.matches[k].index_b, y.matches[k].index_b) << k;
    EXPECT_EQ(x.matches[k].rank_a, y.matches[k].rank_a) << k;
    EXPECT_EQ(x.matches[k].rank_b, y.matches[k].rank_b) << k;
    EXPECT_EQ(x.matches[k].on_lcs, y.matches[k].on_lcs) << k;
  }
  ASSERT_EQ(x.moves.size(), y.moves.size());
  for (std::size_t k = 0; k < x.moves.size(); ++k) {
    EXPECT_EQ(x.moves[k].index_a, y.moves[k].index_a) << k;
    EXPECT_EQ(x.moves[k].index_b, y.moves[k].index_b) << k;
    EXPECT_EQ(x.moves[k].displacement, y.moves[k].displacement) << k;
  }
}

/// The LIS path spelled out from its primitives: matches in B order,
/// rank_a by A position, one longest increasing subsequence of the
/// forward ranks and every match off it moved. When B keeps A's order
/// of the common packets the backward direction ties (an empty move set
/// both ways), so this is exactly what align_trials' LIS passes give.
Alignment forward_lis_alignment(const Trial& a, const Trial& b) {
  Alignment out;
  out.size_a = a.size();
  out.size_b = b.size();
  for (std::uint32_t k = 0; k < b.size(); ++k) {
    for (std::uint32_t j = 0; j < a.size(); ++j) {
      if (a[j].id == b[k].id) {
        MatchedPacket m;
        m.index_a = j;
        m.index_b = k;
        m.rank_b = static_cast<std::uint32_t>(out.matches.size());
        out.matches.push_back(m);
      }
    }
  }
  std::vector<std::uint32_t> seq;
  for (MatchedPacket& m : out.matches) {
    std::uint32_t rank = 0;
    for (const MatchedPacket& o : out.matches) rank += o.index_a < m.index_a;
    m.rank_a = rank;
    seq.push_back(rank);
  }
  for (const std::uint32_t pos : longest_increasing_subsequence(seq)) {
    out.matches[pos].on_lcs = true;
  }
  for (const MatchedPacket& m : out.matches) {
    if (m.on_lcs) {
      ++out.lcs_length;
      continue;
    }
    const std::int64_t d = static_cast<std::int64_t>(m.rank_a) - m.rank_b;
    out.moves.push_back(Move{m.index_b, m.index_a, d});
    out.sum_abs_displacement += static_cast<double>(d < 0 ? -d : d);
  }
  return out;
}

TEST(CompareScratch, IdentityFastPathMatchesLisPath) {
  // B keeps A's order of its common packets (loss, extras spliced in,
  // jitter, no reordering): the forward rank sequence is 0..m-1 and
  // align_trials skips both LIS passes. Its alignment must equal the
  // LIS path's field by field — and a single adjacent swap, which takes
  // the LIS path, must still agree with it.
  Rng rng(21);
  CompareScratch scratch;
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = round == 0 ? 1 : 20 + rng.uniform_u64(300);
    const Trial a = random_trial(rng, n, 0.0, 0);
    std::vector<TrialPacket> kept;
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (round > 0 && rng.chance(0.1)) continue;
      if (rng.chance(0.1)) kept.push_back({PacketId{7, j}, a[j].time - 3});
      kept.push_back({a[j].id, a[j].time + static_cast<Ns>(rng.uniform_u64(50))});
    }
    const Trial b(kept);
    Alignment got;
    align_trials(a, b, scratch, &got);
    const Alignment want = forward_lis_alignment(a, b);
    EXPECT_EQ(want.lcs_length, want.matches.size());  // identity ranks
    expect_same_alignment(got, want);
    EXPECT_EQ(compare_trials(a, b).metrics.ordering, 0.0);

    // Swap the last two common packets: no longer the identity.
    std::size_t last = kept.size(), prev = kept.size();
    for (std::size_t k = kept.size(); k-- > 0;) {
      if (kept[k].id.hi != 1) continue;
      if (last == kept.size()) {
        last = k;
      } else {
        prev = k;
        break;
      }
    }
    if (prev == kept.size()) continue;
    std::swap(kept[prev].id, kept[last].id);
    const Trial swapped(kept);
    align_trials(a, swapped, scratch, &got);
    const Alignment lis = forward_lis_alignment(a, swapped);
    EXPECT_EQ(lis.lcs_length + 1, lis.matches.size());
    EXPECT_EQ(got.lcs_length, lis.lcs_length);
    EXPECT_EQ(got.sum_abs_displacement, lis.sum_abs_displacement);
    ASSERT_EQ(got.moves.size(), 1u);
    EXPECT_EQ(std::abs(got.moves[0].displacement), 1);
  }
}

TEST(CompareScratch, AlignMatchedEqualsAlignTrials) {
  // A caller that already knows every match (the streaming monitor) gets
  // align_trials' exact alignment from align_matched.
  Rng rng(22);
  CompareScratch scratch;
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 1 + rng.uniform_u64(2000);
    const Trial a = random_trial(rng, n, 0.0, 0, /*drops=*/round);
    const Trial b = random_trial(rng, n, 12.0, n / 5, /*drops=*/round + 1);
    const ReferenceIndex index(a);
    std::vector<std::uint32_t> b_to_a;
    for (std::size_t k = 0; k < b.size(); ++k) {
      b_to_a.push_back(index.lookup(b[k].id));
    }
    Alignment want, got;
    align_trials(a, b, scratch, &want);
    align_matched(a, b, b_to_a, scratch, &got);
    expect_same_alignment(got, want);
  }
}

TEST(LisWorkspace, MatchesAllocatingOverload) {
  Rng rng(20);
  LisScratch scratch;
  std::vector<std::uint32_t> out;  // reused like CompareScratch::lis_out
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_u64(3000));
    std::vector<std::uint32_t> values(n);
    for (auto& v : values) {
      v = static_cast<std::uint32_t>(rng.uniform_u64(n * 2));
    }
    const auto plain = longest_increasing_subsequence(values);
    longest_increasing_subsequence(values, scratch, &out);
    EXPECT_EQ(plain, out);
    EXPECT_EQ(lis_length(values), plain.size());
  }
  const std::uint64_t warm = scratch.grows;
  const std::vector<std::uint32_t> small{3, 1, 2};
  longest_increasing_subsequence(small, scratch, &out);
  EXPECT_EQ(scratch.grows, warm);  // smaller input never grows a warm scratch
}

TEST(ScratchDeterminism, EvalJobsInvariant) {
  // The experiment evaluator shares one read-only ReferenceIndex across
  // workers, each with a private scratch; results must be bit-identical
  // at any job count (this also exercises the sharing under TSan).
  auto run_at = [](int jobs) {
    testbed::ExperimentConfig cfg;
    cfg.env = testbed::local_single();
    cfg.packets = 2000;
    cfg.runs = 5;
    cfg.seed = 77;
    cfg.collect_series = false;
    cfg.eval_jobs = jobs;
    return testbed::run_experiment(cfg);
  };
  const auto serial = run_at(1);
  const auto parallel = run_at(4);
  ASSERT_EQ(serial.comparisons.size(), parallel.comparisons.size());
  for (std::size_t i = 0; i < serial.comparisons.size(); ++i) {
    expect_same_result(serial.comparisons[i], parallel.comparisons[i]);
  }
  EXPECT_EQ(serial.mean.kappa, parallel.mean.kappa);
}

}  // namespace
}  // namespace choir::core
