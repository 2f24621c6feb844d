#include "quantile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

namespace perfbench {
namespace {

std::vector<double> shuffled_range(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

TEST(ExactQuantile, NearestRankOnPermutation) {
  auto v = shuffled_range(1000);
  const QuantileResult p50 = exact_quantile(v, 0.50);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.samples, 1000u);
  EXPECT_EQ(p50.beyond, 500u);
  const QuantileResult p99 = exact_quantile(v, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
}

TEST(ExactQuantile, ReportsAMeasuredValueNotABucketEdge) {
  std::vector<double> v = {65.6, 131.0, 70.3, 99.9, 262.2};
  const QuantileResult r = exact_quantile(v, 0.5);
  EXPECT_EQ(r.value, 99.9);
}

TEST(ExactQuantile, TenBeyondRule) {
  auto v1000 = shuffled_range(1000);
  EXPECT_TRUE(reportable(exact_quantile(v1000, 0.99)));  // exactly 10 beyond
  auto v999 = shuffled_range(999);
  const QuantileResult r = exact_quantile(v999, 0.99);
  EXPECT_EQ(r.beyond, 9u);
  EXPECT_FALSE(reportable(r));
  auto v20 = shuffled_range(20);
  EXPECT_TRUE(reportable(exact_quantile(v20, 0.5)));
  EXPECT_FALSE(reportable(exact_quantile(v20, 0.99)));
}

TEST(ExactQuantile, EdgeCases) {
  std::vector<double> empty;
  EXPECT_FALSE(reportable(exact_quantile(empty, 0.5)));
  EXPECT_EQ(exact_quantile(empty, 0.5).samples, 0u);
  std::vector<double> one = {42.0};
  EXPECT_EQ(exact_quantile(one, 0.5).value, 42.0);
  EXPECT_EQ(exact_quantile(one, 0.99).beyond, 0u);
  auto v = shuffled_range(100);
  EXPECT_EQ(exact_quantile(v, 1.0).value, 100.0);
  EXPECT_EQ(exact_quantile(v, 1.0).beyond, 0u);
  EXPECT_EQ(exact_quantile(v, 0.0).samples, 100u);
  EXPECT_EQ(exact_quantile(v, 0.0).beyond, 0u);
  std::vector<double> ties(50, 3.0);
  EXPECT_EQ(exact_quantile(ties, 0.99).value, 3.0);
}

TEST(ExactQuantile, MeanAndMedian) {
  EXPECT_EQ(mean_of({}), 0.0);
  EXPECT_EQ(mean_of({1.0, 2.0, 6.0}), 3.0);
  EXPECT_EQ(median_of({5.0, 1.0, 3.0}), 3.0);
}

}  // namespace
}  // namespace perfbench
