#include "core/lis.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/metrics.hpp"

namespace choir::core {
namespace {

// Brute-force LIS length in O(n^2) for cross-checking.
std::size_t lis_brute(const std::vector<std::uint32_t>& v) {
  if (v.empty()) return 0;
  std::vector<std::size_t> best(v.size(), 1);
  std::size_t answer = 1;
  for (std::size_t i = 1; i < v.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (v[j] < v[i]) best[i] = std::max(best[i], best[j] + 1);
    }
    answer = std::max(answer, best[i]);
  }
  return answer;
}

bool is_valid_increasing_subsequence(const std::vector<std::uint32_t>& v,
                                     const std::vector<std::uint32_t>& pos) {
  for (std::size_t k = 1; k < pos.size(); ++k) {
    if (pos[k] <= pos[k - 1]) return false;
    if (v[pos[k]] <= v[pos[k - 1]]) return false;
  }
  return true;
}

TEST(Lis, EmptyInput) {
  EXPECT_TRUE(
      longest_increasing_subsequence(std::vector<std::uint32_t>{}).empty());
  EXPECT_EQ(lis_length(std::vector<std::uint32_t>{}), 0u);
}

TEST(Lis, SingleElement) {
  const auto r = longest_increasing_subsequence(std::vector<std::uint32_t>{42});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 0u);
}

TEST(Lis, AlreadySorted) {
  const std::vector<std::uint32_t> v{1, 2, 3, 4, 5};
  EXPECT_EQ(longest_increasing_subsequence(v).size(), 5u);
}

TEST(Lis, ReversedGivesLengthOne) {
  const std::vector<std::uint32_t> v{5, 4, 3, 2, 1};
  EXPECT_EQ(longest_increasing_subsequence(v).size(), 1u);
}

TEST(Lis, ClassicExample) {
  const std::vector<std::uint32_t> v{10, 9, 2, 5, 3, 7, 101, 18};
  const auto r = longest_increasing_subsequence(v);
  EXPECT_EQ(r.size(), 4u);  // e.g. 2, 3, 7, 18
  EXPECT_TRUE(is_valid_increasing_subsequence(v, r));
}

TEST(Lis, StrictlyIncreasingRejectsEqualRuns) {
  const std::vector<std::uint32_t> v{3, 3, 3, 3};
  EXPECT_EQ(longest_increasing_subsequence(v).size(), 1u);
}

TEST(Lis, SwappedNeighborPair) {
  // A permutation with one adjacent swap keeps n-1 in order.
  const std::vector<std::uint32_t> v{0, 2, 1, 3, 4};
  EXPECT_EQ(longest_increasing_subsequence(v).size(), 4u);
}

TEST(Lis, LengthHelperMatchesRecovery) {
  Rng rng(100);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint32_t> v(200);
    for (auto& x : v) x = static_cast<std::uint32_t>(rng.uniform_u64(500));
    EXPECT_EQ(lis_length(v), longest_increasing_subsequence(v).size());
  }
}

struct LisRandomCase {
  std::uint64_t seed;
  std::size_t n;
  std::uint64_t value_range;
};

class LisRandomTest : public ::testing::TestWithParam<LisRandomCase> {};

TEST_P(LisRandomTest, MatchesBruteForceAndIsValid) {
  const auto param = GetParam();
  Rng rng(param.seed);
  std::vector<std::uint32_t> v(param.n);
  for (auto& x : v) {
    x = static_cast<std::uint32_t>(rng.uniform_u64(param.value_range));
  }
  const auto r = longest_increasing_subsequence(v);
  EXPECT_EQ(r.size(), lis_brute(v));
  EXPECT_TRUE(is_valid_increasing_subsequence(v, r));
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, LisRandomTest,
    ::testing::Values(LisRandomCase{1, 10, 10}, LisRandomCase{2, 10, 100},
                      LisRandomCase{3, 50, 8}, LisRandomCase{4, 50, 50},
                      LisRandomCase{5, 100, 1000}, LisRandomCase{6, 200, 20},
                      LisRandomCase{7, 200, 200000}, LisRandomCase{8, 333, 2},
                      LisRandomCase{9, 500, 500}, LisRandomCase{10, 64, 64}));

TEST(Lis, PermutationIdentityRecovery) {
  // For a permutation shifted by a rotation, LIS = n - shift.
  const std::size_t n = 1000, shift = 137;
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint32_t>((i + shift) % n);
  }
  EXPECT_EQ(longest_increasing_subsequence(v).size(), n - shift);
}

TEST(Lis, LargeInputFast) {
  // O(n log n): 200k elements should be near-instant.
  Rng rng(11);
  std::vector<std::uint32_t> v(200000);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next_u64());
  const auto r = longest_increasing_subsequence(v);
  EXPECT_GT(r.size(), 500u);  // ~2*sqrt(n) expected
  EXPECT_TRUE(is_valid_increasing_subsequence(v, r));
}

// --- Exact positions against a reference patience sort ------------------

/// Textbook patience sort: std::lower_bound over the pile tails, parent
/// links to the previous pile's tail. No fast paths.
std::vector<std::uint32_t> reference_lis(const std::vector<std::uint32_t>& v) {
  std::vector<std::uint32_t> tails;
  std::vector<std::uint32_t> tail_pos;
  std::vector<std::uint32_t> parent(v.size());
  for (std::uint32_t i = 0; i < v.size(); ++i) {
    const auto pile = static_cast<std::size_t>(
        std::lower_bound(tails.begin(), tails.end(), v[i]) - tails.begin());
    parent[i] = pile > 0 ? tail_pos[pile - 1] : UINT32_MAX;
    if (pile == tails.size()) {
      tails.push_back(v[i]);
      tail_pos.push_back(i);
    } else {
      tails[pile] = v[i];
      tail_pos[pile] = i;
    }
  }
  std::vector<std::uint32_t> out(tail_pos.size());
  std::uint32_t cur = tail_pos.empty() ? 0 : tail_pos.back();
  for (std::size_t k = out.size(); k-- > 0;) {
    out[k] = cur;
    cur = parent[cur];
  }
  return out;
}

/// Ascending runs of random length, each starting from a random base.
std::vector<std::uint32_t> sorted_runs(Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> v;
  while (v.size() < n) {
    auto x = static_cast<std::uint32_t>(rng.uniform_u64(n));
    const std::size_t run = 1 + rng.uniform_u64(64);
    for (std::size_t k = 0; k < run && v.size() < n; ++k) {
      x += static_cast<std::uint32_t>(1 + rng.uniform_u64(3));
      v.push_back(x);
    }
  }
  return v;
}

/// Two increasing bursts (0..n/2 and n/2..n) merged in random-length
/// chunks: the rank sequence of a whole-burst reordering between two
/// replay ports.
std::vector<std::uint32_t> interleaved_bursts(Rng& rng, std::size_t n) {
  const auto half = static_cast<std::uint32_t>(n / 2);
  std::uint32_t lo = 0;
  std::uint32_t hi = half;
  std::vector<std::uint32_t> v;
  while (v.size() < n) {
    const std::size_t chunk = 1 + rng.uniform_u64(16);
    const bool from_lo = hi >= n || (lo < half && rng.chance(0.5));
    for (std::size_t k = 0; k < chunk && v.size() < n; ++k) {
      if (from_lo && lo < half) {
        v.push_back(lo++);
      } else if (hi < n) {
        v.push_back(hi++);
      } else {
        v.push_back(lo++);
      }
    }
  }
  return v;
}

std::vector<std::uint32_t> rotation(Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> v(n);
  const std::size_t shift = rng.uniform_u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint32_t>((i + shift) % n);
  }
  return v;
}

/// Non-decreasing values in runs of equal copies, with a few drops.
std::vector<std::uint32_t> equal_runs(Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> v;
  std::uint32_t x = 0;
  while (v.size() < n) {
    x = rng.chance(0.1) ? x / 2 : x + 1;
    const std::size_t copies = 1 + rng.uniform_u64(5);
    for (std::size_t k = 0; k < copies && v.size() < n; ++k) v.push_back(x);
  }
  return v;
}

std::vector<std::uint32_t> random_values(Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.uniform_u64(4 * n));
  return v;
}

TEST(Lis, PositionsMatchReferencePatienceSort) {
  using Shape = std::vector<std::uint32_t> (*)(Rng&, std::size_t);
  const Shape shapes[] = {sorted_runs, interleaved_bursts, rotation,
                          equal_runs, random_values};
  LisScratch scratch;  // reused across every case, as the kernel does
  std::vector<std::uint32_t> out;
  for (std::size_t shape = 0; shape < std::size(shapes); ++shape) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Rng rng(1000 * shape + seed);
      const std::size_t n = 1 + rng.uniform_u64(3000);
      const std::vector<std::uint32_t> v = shapes[shape](rng, n);
      const std::vector<std::uint32_t> expected = reference_lis(v);
      longest_increasing_subsequence(v, scratch, &out);
      ASSERT_EQ(out, expected) << "shape " << shape << " seed " << seed;
      ASSERT_EQ(longest_increasing_subsequence(v), expected)
          << "shape " << shape << " seed " << seed;
      ASSERT_EQ(lis_length(v), expected.size())
          << "shape " << shape << " seed " << seed;
    }
  }
}

/// Trial A in order 0..2k-1; trial B the two halves interleaved one
/// packet at a time: 0, k, 1, k+1, ..., k-1, 2k-1.
std::pair<Trial, Trial> interleaved_trials(std::uint32_t k) {
  Trial a;
  Trial b;
  for (std::uint32_t i = 0; i < 2 * k; ++i) {
    a.push_back(TrialPacket{PacketId{0, i}, static_cast<Ns>(i) * 100});
  }
  for (std::uint32_t j = 0; j < k; ++j) {
    b.push_back(TrialPacket{PacketId{0, j}, static_cast<Ns>(2 * j) * 100});
    b.push_back(
        TrialPacket{PacketId{0, k + j}, static_cast<Ns>(2 * j + 1) * 100});
  }
  return {a, b};
}

TEST(Lis, InterleavedBurstsScoreByHand) {
  // k = 4. Forward ranks in B order: 0 4 1 5 2 6 3 7. The patience sort
  // keeps 0 1 2 3 7 (B positions 0 2 4 6 7) and moves packets 4, 5, 6
  // from B positions 1, 3, 5 by 3, 2 and 1 ranks: O = 6 / (8*9/2). The
  // backward direction ties at 6, and ties keep the forward partition.
  const auto [a, b] = interleaved_trials(4);
  ComparisonOptions options;
  options.collect_alignment = true;
  const ComparisonResult r = compare_trials(a, b, options);
  EXPECT_EQ(r.common, 8u);
  EXPECT_EQ(r.lcs_length, 5u);
  EXPECT_EQ(r.moved, 3u);
  EXPECT_EQ(r.sum_abs_move_distance, 6.0);
  EXPECT_EQ(r.metrics.ordering, 6.0 / 36.0);
  ASSERT_EQ(r.alignment.moves.size(), 3u);
  const std::uint32_t index_b[] = {1, 3, 5};
  const std::uint32_t index_a[] = {4, 5, 6};
  const std::int64_t displacement[] = {3, 2, 1};
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(r.alignment.moves[m].index_b, index_b[m]);
    EXPECT_EQ(r.alignment.moves[m].index_a, index_a[m]);
    EXPECT_EQ(r.alignment.moves[m].displacement, displacement[m]);
  }
}

TEST(Lis, InterleavedBurstsScoreInClosedForm) {
  // Generalising the k = 4 case: the second burst's first k-1 packets
  // move, packet k+j by k-1-j ranks, so O's numerator is k(k-1)/2 over
  // the 2k(2k+1)/2 worst case.
  const std::uint32_t k = 5000;
  const auto [a, b] = interleaved_trials(k);
  const ComparisonResult r = compare_trials(a, b);
  const double kd = k;
  EXPECT_EQ(r.lcs_length, k + 1u);
  EXPECT_EQ(r.moved, k - 1u);
  EXPECT_EQ(r.sum_abs_move_distance, kd * (kd - 1.0) / 2.0);
  EXPECT_EQ(r.metrics.ordering,
            (kd * (kd - 1.0) / 2.0) / (2.0 * kd * (2.0 * kd + 1.0) / 2.0));
}

}  // namespace
}  // namespace choir::core
