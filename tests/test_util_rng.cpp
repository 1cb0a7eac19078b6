// Tests for the deterministic RNG: reproducibility, stream independence,
// and the statistical sanity of every distribution the simulators rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace at::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(77);
  Rng child1 = parent.fork(5);
  (void)parent();
  (void)parent();
  Rng parent2(77);
  Rng child2 = parent2.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, ForkStreamsDiffer) {
  Rng parent(77);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(11);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(12);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(14);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(static_cast<double>(rng.poisson(3.0)));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_NEAR(stats.variance(), 3.0, 0.3);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(15);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(static_cast<double>(rng.poisson(1000.0)));
  EXPECT_NEAR(stats.mean(), 1000.0, 5.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(16);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, ZipfRanksWithinRange) {
  Rng rng(17);
  std::uint64_t ones = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto rank = rng.zipf(100, 1.2);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, 100u);
    if (rank == 1) ++ones;
  }
  // Rank 1 must dominate under a zipf law.
  EXPECT_GT(ones, 1000u);
}

/// Rng::zipf as it stood before the s == 1 fix, kept verbatim: at s != 1
/// the fixed function must draw the same sequence bit for bit (the
/// alert-path benchmark's live_flows workload draws zipf(n, 1.1)).
std::uint64_t reference_zipf(Rng& rng, std::uint64_t n, double s) {
  if (n <= 1) return 1;
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = rng.uniform();
    const double v = rng.uniform();
    const double x = std::floor(std::pow(static_cast<double>(n) + 1.0, u));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<std::uint64_t>(x);
    }
  }
}

TEST(Rng, ZipfExponentOneTerminatesAndOtherExponentsUnchanged) {
  // s == 1 used to reject forever (0/0 in the acceptance test). Its mass
  // is exactly 1/k over [1, n], so rank 1 carries 1/H_n.
  constexpr int kDraws = 10000;
  constexpr std::uint64_t kRanks = 1000;
  Rng rng(23);
  int ones = 0;
  for (int i = 0; i < kDraws; ++i) {
    const auto rank = rng.zipf(kRanks, 1.0);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, kRanks);
    if (rank == 1) ++ones;
  }
  double harmonic = 0.0;
  for (std::uint64_t k = 1; k <= kRanks; ++k) harmonic += 1.0 / static_cast<double>(k);
  // 1/H_1000 ~= 0.1336; the binomial standard deviation of the share over
  // 10K draws is ~0.0034, so 0.015 is a > 4-sigma band.
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 1.0 / harmonic, 0.015);

  for (const double s : {0.5, 1.1, 2.0}) {
    SCOPED_TRACE("s = " + std::to_string(s));
    Rng fixed(31);
    Rng reference(31);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(fixed.zipf(kRanks, s), reference_zipf(reference, kRanks, s));
    }
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(18);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(19);
  const auto sample = rng.sample_indices(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto index : sample) EXPECT_LT(index, 100u);
}

TEST(Rng, SampleIndicesClampsToPopulation) {
  Rng rng(20);
  EXPECT_EQ(rng.sample_indices(5, 10).size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, GeometricEdgeCases) {
  Rng rng(22);
  EXPECT_EQ(rng.geometric(1.0), 0u);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(static_cast<double>(rng.geometric(0.25)));
  EXPECT_NEAR(stats.mean(), 3.0, 0.15);  // (1-p)/p
}

}  // namespace
}  // namespace at::util
