#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <vector>

namespace mlad {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(1, 3));
  EXPECT_EQ(seen, (std::set<std::int64_t>{1, 2, 3}));
}

TEST(Rng, IndexBounds) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.index(5), 5u);
  }
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, DiscretePrefersHeavyWeight) {
  Rng rng(19);
  const std::vector<double> w = {0.05, 0.9, 0.05};
  int mid = 0;
  for (int i = 0; i < 1000; ++i) mid += rng.discrete(w) == 1 ? 1 : 0;
  EXPECT_GT(mid, 800);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Rng, NormalMatchesTheStandardDistributionBitwise) {
  // normal() scales a standard draw itself; every stddev > 0 must keep the
  // bits (and the engine draws) of std::normal_distribution(mean, stddev).
  for (const std::uint64_t seed : {1u, 23u, 1234u}) {
    for (const double stddev : {1e-6, 0.05, 1.0, 3.0, 250.0}) {
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < 200; ++i) {
        const double mean = (i % 7) * 1.5 - 4.0;
        const double expected =
            std::normal_distribution<double>(mean, stddev)(reference);
        ASSERT_EQ(rng.normal(mean, stddev), expected)
            << "seed " << seed << " stddev " << stddev << " draw " << i;
      }
      EXPECT_EQ(rng.engine()(), reference());
    }
  }
}

TEST(Rng, NormalWithZeroStddevReturnsTheMean) {
  Rng rng(5);
  std::mt19937_64 reference(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.normal(7.25, 0.0), 7.25);
    std::normal_distribution<double>()(reference);  // same engine draws
  }
  EXPECT_EQ(rng.engine()(), reference());
}

TEST(Rng, NormalRejectsBadStddev) {
  Rng rng(5);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(rng.normal(0.0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(rng.normal(0.0, HUGE_VAL), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(31);
  Rng child = parent.fork();
  // Child should not replay the parent stream.
  Rng parent2(31);
  parent2.fork();
  EXPECT_DOUBLE_EQ(parent.uniform(), parent2.uniform());
  (void)child;
}

}  // namespace
}  // namespace mlad
