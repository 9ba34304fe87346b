// Property-based tests: invariants of the Section 3 metrics under random
// trial perturbations (symmetry, normalization, zero-on-identity, and
// monotone response to injected faults).
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/metrics.hpp"

namespace choir::core {
namespace {

Trial random_trial(Rng& rng, std::size_t n, Ns mean_gap) {
  Trial t;
  Ns now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back(TrialPacket{PacketId{7, i + 1}, now});
    now += static_cast<Ns>(rng.exponential(static_cast<double>(mean_gap))) + 1;
  }
  return t;
}

Trial perturb(Rng& rng, const Trial& base, double drop_p, std::size_t swaps,
              double jitter_sigma) {
  std::vector<TrialPacket> pkts;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (rng.chance(drop_p)) continue;
    TrialPacket p = base[i];
    p.time += static_cast<Ns>(rng.normal(0.0, jitter_sigma));
    pkts.push_back(p);
  }
  for (std::size_t s = 0; s < swaps && pkts.size() >= 2; ++s) {
    const std::size_t i = rng.uniform_u64(pkts.size() - 1);
    std::swap(pkts[i].id, pkts[i + 1].id);
  }
  return Trial(std::move(pkts));
}

struct PerturbCase {
  std::uint64_t seed;
  std::size_t n;
  double drop_p;
  std::size_t swaps;
  double jitter;
};

class MetricInvariants : public ::testing::TestWithParam<PerturbCase> {};

TEST_P(MetricInvariants, AllComponentsNormalizedAndSymmetric) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const Trial a = random_trial(rng, param.n, 280);
  const Trial b = perturb(rng, a, param.drop_p, param.swaps, param.jitter);

  const auto ab = compare_trials(a, b);
  const auto ba = compare_trials(b, a);

  // Normalization: every component in [0, 1]; kappa in [0, 1].
  for (const double v :
       {ab.metrics.uniqueness, ab.metrics.ordering, ab.metrics.latency,
        ab.metrics.iat}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_GE(ab.metrics.kappa, 0.0);
  EXPECT_LE(ab.metrics.kappa, 1.0);

  // Symmetry: X_AB = X_BA for every component (paper's stated property).
  EXPECT_NEAR(ab.metrics.uniqueness, ba.metrics.uniqueness, 1e-9);
  EXPECT_NEAR(ab.metrics.ordering, ba.metrics.ordering, 1e-9);
  EXPECT_NEAR(ab.metrics.latency, ba.metrics.latency, 1e-9);
  EXPECT_NEAR(ab.metrics.iat, ba.metrics.iat, 1e-9);
  EXPECT_NEAR(ab.metrics.kappa, ba.metrics.kappa, 1e-9);
}

TEST_P(MetricInvariants, IdentityIsPerfectlyConsistent) {
  const auto param = GetParam();
  Rng rng(param.seed ^ 0xABCD);
  const Trial a = random_trial(rng, param.n, 280);
  const auto r = compare_trials(a, a);
  EXPECT_EQ(r.metrics.uniqueness, 0.0);
  EXPECT_EQ(r.metrics.ordering, 0.0);
  EXPECT_EQ(r.metrics.latency, 0.0);
  EXPECT_EQ(r.metrics.iat, 0.0);
  EXPECT_EQ(r.metrics.kappa, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    PerturbationSweep, MetricInvariants,
    ::testing::Values(PerturbCase{1, 50, 0.0, 0, 0.0},
                      PerturbCase{2, 50, 0.1, 0, 0.0},
                      PerturbCase{3, 50, 0.0, 5, 0.0},
                      PerturbCase{4, 50, 0.0, 0, 50.0},
                      PerturbCase{5, 200, 0.05, 10, 25.0},
                      PerturbCase{6, 200, 0.5, 0, 0.0},
                      PerturbCase{7, 500, 0.01, 100, 10.0},
                      PerturbCase{8, 1000, 0.0, 500, 100.0},
                      PerturbCase{9, 1000, 0.2, 50, 500.0},
                      PerturbCase{10, 37, 0.9, 3, 1000.0}));

TEST(MetricMonotonicity, MoreDropsMeansLargerU) {
  Rng rng(77);
  const Trial a = random_trial(rng, 500, 280);
  double prev = -1.0;
  for (const double drop_p : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    Rng r2(99);  // fixed perturbation stream, only drop_p varies
    const Trial b = perturb(r2, a, drop_p, 0, 0.0);
    const double u = compare_trials(a, b).metrics.uniqueness;
    EXPECT_GT(u, prev);
    prev = u;
  }
}

TEST(MetricMonotonicity, MoreSwapsMeansLargerO) {
  Rng rng(78);
  const Trial a = random_trial(rng, 500, 280);
  double prev = -1.0;
  for (const std::size_t swaps : {std::size_t{0}, std::size_t{10},
                                  std::size_t{50}, std::size_t{200}}) {
    Rng r2(100);
    const Trial b = perturb(r2, a, 0.0, swaps, 0.0);
    const double o = compare_trials(a, b).metrics.ordering;
    EXPECT_GE(o, prev);
    if (swaps > 0) {
      EXPECT_GT(o, 0.0);
    }
    prev = o;
  }
}

TEST(MetricMonotonicity, MoreJitterMeansLargerI) {
  Rng rng(79);
  const Trial a = random_trial(rng, 500, 280);
  double prev = -1.0;
  for (const double jitter : {0.0, 5.0, 20.0, 80.0}) {
    Rng r2(101);
    const Trial b = perturb(r2, a, 0.0, 0, jitter);
    const double i = compare_trials(a, b).metrics.iat;
    EXPECT_GE(i, prev);
    prev = i;
  }
}

TEST(MetricMonotonicity, KappaFallsAsFaultsRise) {
  Rng rng(80);
  const Trial a = random_trial(rng, 400, 280);
  Rng r_light(200), r_heavy(200);
  const Trial light = perturb(r_light, a, 0.01, 2, 5.0);
  const Trial heavy = perturb(r_heavy, a, 0.2, 100, 200.0);
  EXPECT_GT(compare_trials(a, light).metrics.kappa,
            compare_trials(a, heavy).metrics.kappa);
}

TEST(MetricScaleInvariance, TimeUnitsScaleOut) {
  // Multiplying all timestamps by a constant leaves L and I unchanged
  // (both are ratios of times).
  Rng rng(81);
  const Trial a = random_trial(rng, 300, 280);
  Rng r2(300);
  const Trial b = perturb(r2, a, 0.0, 0, 40.0);

  auto scale = [](const Trial& t, Ns k) {
    std::vector<TrialPacket> pkts(t.packets());
    for (auto& p : pkts) p.time *= k;
    return Trial(std::move(pkts));
  };
  const auto r1 = compare_trials(a, b);
  const auto r10 = compare_trials(scale(a, 10), scale(b, 10));
  EXPECT_NEAR(r1.metrics.latency, r10.metrics.latency, 1e-9);
  EXPECT_NEAR(r1.metrics.iat, r10.metrics.iat, 1e-9);
}

TEST(MetricIndependence, PureJitterLeavesUAndOZero) {
  Rng rng(82);
  const Trial a = random_trial(rng, 300, 280);
  Rng r2(301);
  const Trial b = perturb(r2, a, 0.0, 0, 30.0);
  const auto r = compare_trials(a, b);
  EXPECT_EQ(r.metrics.uniqueness, 0.0);
  EXPECT_EQ(r.metrics.ordering, 0.0);
  EXPECT_GT(r.metrics.iat, 0.0);
}

TEST(MetricIndependence, PureDropsLeaveOZero) {
  Rng rng(83);
  const Trial a = random_trial(rng, 300, 280);
  Rng r2(302);
  const Trial b = perturb(r2, a, 0.2, 0, 0.0);
  const auto r = compare_trials(a, b);
  EXPECT_GT(r.metrics.uniqueness, 0.0);
  EXPECT_EQ(r.metrics.ordering, 0.0);
}

}  // namespace
}  // namespace choir::core
