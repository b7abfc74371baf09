#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "arch/detector.hpp"
#include "common/error.hpp"
#include "nn/synthetic.hpp"
#include "quant/metadata.hpp"

namespace loom {
namespace {

// Per-group weight precisions are the signed codes GroupMetadata encodes:
// each group's worst-case two's-complement needed bits.

TEST(PerGroupPrecisions, MatchesBruteForce) {
  const std::vector<Value> values = {1, 2, 3, 0, 250, 1, 0, 0, 15};
  const auto md = quant::GroupMetadata::encode_values(values, 3);
  ASSERT_EQ(md.groups(), 3);
  for (std::int64_t g = 0; g < md.groups(); ++g) {
    int brute = 1;
    for (std::size_t i = 0; i < 3; ++i) {
      brute = std::max(
          brute, needed_bits_signed(values[static_cast<std::size_t>(g) * 3 + i]));
    }
    EXPECT_EQ(md.group_precision(g), brute) << g;
  }
  EXPECT_EQ(md.group_precision(1), 9);  // max 250, plus the sign bit
}

TEST(PerGroupPrecisions, PartialFinalGroup) {
  const std::vector<Value> values = {1, 1, 1, 1, 127};
  const auto md = quant::GroupMetadata::encode_values(values, 4);
  ASSERT_EQ(md.groups(), 2);
  EXPECT_EQ(md.group_precision(1), 8);
}

TEST(PerGroupPrecisions, SignedWeights) {
  const std::vector<Value> values = {-1, 1, -128, 2};
  const auto md = quant::GroupMetadata::encode_values(values, 2);
  ASSERT_EQ(md.groups(), 2);
  EXPECT_EQ(md.group_precision(0), 2);
  EXPECT_EQ(md.group_precision(1), 8);
}

TEST(MeanGroupPrecision, AveragesGroups) {
  const std::vector<Value> values = {1, 1, 127, 127};
  EXPECT_DOUBLE_EQ(quant::GroupMetadata::encode_values(values, 2).mean_precision(),
                   5.0);
}

TEST(PrecisionDetector, CountsInvocations) {
  arch::DynamicPrecisionUnit det;
  const std::vector<Value> group = {1, 2, 3};
  (void)det.detect(group);
  const std::span<const Value> columns[] = {group, group};
  (void)det.detect(columns);
  EXPECT_EQ(det.invocations(), 2u);
  EXPECT_EQ(det.values_inspected(), 9u);
}

TEST(DynamicPrecisionUnit, DetectMatchesGroupPrecision) {
  arch::DynamicPrecisionUnit unit;
  const std::vector<Value> group = {0, 5, 9, 2};
  EXPECT_EQ(unit.detect(group), group_precision_unsigned(group));
  EXPECT_EQ(unit.invocations(), 1u);
  EXPECT_EQ(unit.values_inspected(), 4u);
}

TEST(DynamicPrecisionUnit, PlaneDetectionEqualsValueDetection) {
  // The OR-tree formulation — OR every bit plane across the dispatcher's
  // per-column fetch group, then find the highest non-empty plane — must
  // agree with the direct value formulation on random data.
  nn::SyntheticSpec spec{.precision = 9, .alpha = 2.0, .is_signed = false};
  const nn::SyntheticSource src(3, 0, spec);
  arch::DynamicPrecisionUnit unit;
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<Value> group(64);
    for (std::size_t i = 0; i < group.size(); ++i) {
      group[i] = src.at(static_cast<std::uint64_t>(trial) * 64 + i);
    }
    const std::span<const Value> all(group);
    const std::span<const Value> columns[] = {
        all.subspan(0, 16), all.subspan(16, 16), all.subspan(32, 16),
        all.subspan(48, 16)};
    EXPECT_EQ(unit.detect(columns), group_precision_unsigned(group)) << trial;
  }
}

TEST(DynamicPrecisionUnit, AllZerosStillOneBit) {
  arch::DynamicPrecisionUnit unit;
  const std::vector<Value> zeros(16, 0);
  EXPECT_EQ(unit.detect(zeros), 1);
  const std::span<const Value> columns[] = {zeros, zeros};
  EXPECT_EQ(unit.detect(columns), 1);
}

TEST(PerGroupPrecisions, GroupSizeOneIsPerValue) {
  const std::vector<Value> values = {0, 1, -2, 4, -8};
  const auto md = quant::GroupMetadata::encode_values(values, 1);
  ASSERT_EQ(md.groups(), 5);
  for (std::int64_t g = 0; g < md.groups(); ++g) {
    EXPECT_EQ(md.group_precision(g),
              needed_bits_signed(values[static_cast<std::size_t>(g)]));
  }
}

TEST(PerGroupPrecisions, InvalidGroupThrows) {
  const std::vector<Value> values = {1};
  EXPECT_THROW((void)quant::GroupMetadata::encode_values(values, 0),
               ContractViolation);
}

}  // namespace
}  // namespace loom
