#include "linalg/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace appclass::linalg {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DeriveSeedSeparatesStreams) {
  const auto s1 = derive_seed(42, 0);
  const auto s2 = derive_seed(42, 1);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(derive_seed(42, 0), s1);  // deterministic
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(10);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i)
    ++counts[static_cast<std::size_t>(rng.uniform_index(7))];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, UniformIndexOfOneIsZero) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(12);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double m = sum / n;
  const double var = sq / n - m * m;
  EXPECT_NEAR(m, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(0.25);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, LognormalMedianNearExpMu) {
  Rng rng(18);
  std::vector<double> xs(50001);
  for (auto& x : xs) x = rng.lognormal(1.0, 0.5);
  std::nth_element(xs.begin(), xs.begin() + 25000, xs.end());
  EXPECT_NEAR(xs[25000], std::exp(1.0), 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(std::span<int>(shuffled));
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitMix64KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), first);
  EXPECT_NE(splitmix64(s2), first);  // state advanced
}

}  // namespace
}  // namespace appclass::linalg
