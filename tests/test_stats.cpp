#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace loom {
namespace {

TEST(Mean, EmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Mean, Basic) {
  const std::array<double, 4> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Geomean, MatchesPaperStyleAggregation) {
  const std::array<double, 2> xs = {2.0, 8.0};
  EXPECT_DOUBLE_EQ(geomean(xs), 4.0);
}

TEST(Geomean, RejectsNonPositive) {
  const std::array<double, 2> xs = {1.0, 0.0};
  EXPECT_THROW((void)geomean(xs), ContractViolation);
}

TEST(Geomean, EmptyIsZero) { EXPECT_EQ(geomean({}), 0.0); }

TEST(Accumulator, TracksMinMaxMean) {
  Accumulator acc;
  for (const double x : {3.0, 1.0, 2.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
}

TEST(LatencyHistogram, EmptyReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(LatencyHistogram, BucketOfIsMonotoneAndExactForSmallValues) {
  // Values below 2^kSubBits get exact one-value buckets.
  for (std::uint64_t v = 0; v < (1u << LatencyHistogram::kSubBits); ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_of(v), v);
  }
  // Bucket index never decreases as the sample grows, and every octave
  // splits into 2^kSubBits sub-buckets.
  std::size_t prev = 0;
  for (const std::uint64_t v :
       {4ull, 5ull, 7ull, 8ull, 100ull, 1000ull, 1ull << 20, 1ull << 40,
        ~0ull}) {
    const std::size_t b = LatencyHistogram::bucket_of(v);
    EXPECT_GE(b, prev) << "sample " << v;
    EXPECT_LT(b, LatencyHistogram::kBuckets);
    prev = b;
  }
  // Within one octave the sub-bucket is picked by the bits below the MSB:
  // 8..9 share a bucket, 10..11 the next, at kSubBits=2.
  EXPECT_EQ(LatencyHistogram::bucket_of(8), LatencyHistogram::bucket_of(9));
  EXPECT_NE(LatencyHistogram::bucket_of(9), LatencyHistogram::bucket_of(10));
}

TEST(LatencyHistogram, TracksCountMinMaxMeanExactly) {
  LatencyHistogram h;
  for (const std::uint64_t v : {100u, 300u, 200u, 900u}) h.add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 900u);
  EXPECT_DOUBLE_EQ(h.mean(), 375.0);
}

TEST(LatencyHistogram, QuantilesWithinRelativeErrorBound) {
  // With kSubBits sub-buckets per octave the bucket width is at most
  // 2^-kSubBits of the value, so any quantile is within ~12.5% relative
  // error of the true order statistic.
  LatencyHistogram h;
  constexpr int kN = 10000;
  for (int i = 1; i <= kN; ++i) h.add(static_cast<std::uint64_t>(i));
  const double rel = 1.0 / (1u << LatencyHistogram::kSubBits) / 2.0;
  EXPECT_NEAR(h.p50(), kN * 0.50, kN * 0.50 * rel);
  EXPECT_NEAR(h.p99(), kN * 0.99, kN * 0.99 * rel);
  EXPECT_NEAR(h.quantile(0.10), kN * 0.10, kN * 0.10 * rel);
  // Quantiles clamp to the observed extremes and are monotone in q.
  EXPECT_GE(h.quantile(0.0), static_cast<double>(h.min()));
  EXPECT_LE(h.quantile(1.0), static_cast<double>(h.max()));
  EXPECT_LE(h.p50(), h.p99());
}

TEST(LatencyHistogram, SingleSampleQuantilesClampToIt) {
  LatencyHistogram h;
  h.add(777);
  EXPECT_EQ(h.p50(), 777.0);
  EXPECT_EQ(h.p99(), 777.0);
  EXPECT_EQ(h.quantile(0.0), 777.0);
  EXPECT_EQ(h.quantile(1.0), 777.0);
}

TEST(LatencyHistogram, MergeEquivalentToSequential) {
  LatencyHistogram a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::uint64_t>(i * i + 1);
    (i % 3 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.p50(), all.p50());
  EXPECT_DOUBLE_EQ(a.p99(), all.p99());
}

TEST(LatencyHistogram, MergeWithEmpty) {
  LatencyHistogram a, empty;
  a.add(42);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 42u);
  EXPECT_EQ(empty.max(), 42u);
}

}  // namespace
}  // namespace loom
