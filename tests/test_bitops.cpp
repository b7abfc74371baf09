// Bit utilities: these underpin every precision computation in the library,
// so they are tested exhaustively over the 16-bit value range.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/bitops.hpp"
#include "quant/metadata.hpp"

namespace loom {
namespace {

/// The definitions the needed-bits functions are held to: `v` is
/// representable in `bits` unsigned / two's-complement bits.
bool fits_unsigned(std::uint32_t v, int bits) {
  return bits >= 32 || v <= ((std::uint64_t{1} << bits) - 1);
}

bool fits_signed(std::int32_t v, int bits) {
  if (bits >= 32) return true;
  const std::int64_t half = std::int64_t{1} << (bits - 1);
  return v >= -half && v < half;
}

/// Signed group precision as the per-group weight metadata encodes it.
int group_precision_signed(std::span<const Value> group) {
  return quant::GroupMetadata::encode_values(group, static_cast<int>(group.size()))
      .group_precision(0);
}

TEST(LeadingOne, ZeroIsMinusOne) { EXPECT_EQ(leading_one(0), -1); }

TEST(LeadingOne, PowersOfTwo) {
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(leading_one(1u << i), i) << "bit " << i;
  }
}

TEST(LeadingOne, AllOnesBelow) {
  for (int i = 1; i < 31; ++i) {
    EXPECT_EQ(leading_one((1u << i) - 1), i - 1);
  }
}

TEST(NeededBitsUnsigned, ZeroNeedsOneBit) { EXPECT_EQ(needed_bits_unsigned(0), 1); }

TEST(NeededBitsUnsigned, ExhaustiveAgainstDefinition) {
  for (std::uint32_t v = 0; v <= 0xFFFF; ++v) {
    const int p = needed_bits_unsigned(v);
    EXPECT_TRUE(fits_unsigned(v, p)) << v;
    if (p > 1) {
      EXPECT_FALSE(fits_unsigned(v, p - 1)) << v;
    }
  }
}

TEST(NeededBitsSigned, Boundaries) {
  EXPECT_EQ(needed_bits_signed(0), 1);
  EXPECT_EQ(needed_bits_signed(-1), 1);
  EXPECT_EQ(needed_bits_signed(1), 2);
  EXPECT_EQ(needed_bits_signed(-2), 2);
  EXPECT_EQ(needed_bits_signed(127), 8);
  EXPECT_EQ(needed_bits_signed(-128), 8);
  EXPECT_EQ(needed_bits_signed(128), 9);
  EXPECT_EQ(needed_bits_signed(-129), 9);
  EXPECT_EQ(needed_bits_signed(32767), 16);
  EXPECT_EQ(needed_bits_signed(-32768), 16);
}

TEST(NeededBitsSigned, ExhaustiveAgainstDefinition) {
  for (std::int32_t v = -40000; v <= 40000; ++v) {
    const int p = needed_bits_signed(v);
    EXPECT_TRUE(fits_signed(v, p)) << v;
    if (p > 1) {
      EXPECT_FALSE(fits_signed(v, p - 1)) << v;
    }
  }
}

TEST(GroupPrecision, UnsignedEqualsMaxOfNeededBits) {
  const std::array<Value, 6> group = {0, 3, 12, 1, 7, 2};
  // max value 12 -> 4 bits.
  EXPECT_EQ(group_precision_unsigned(group), 4);
}

TEST(GroupPrecision, UnsignedOrSemantics) {
  // 8 | 4 = 12 -> still 4 bits even though no single value is 12.
  const std::array<Value, 2> group = {8, 4};
  EXPECT_EQ(group_precision_unsigned(group), 4);
}

TEST(GroupPrecision, SignedTakesWorstCase) {
  const std::array<Value, 3> group = {-5, 2, 1};  // -5 needs 4 bits
  EXPECT_EQ(group_precision_signed(group), 4);
}

TEST(GroupPrecision, EmptyGroupIsOneBit) {
  EXPECT_EQ(group_precision_unsigned({}), 1);
}

TEST(BitOf, TwosComplementNegative) {
  // -1 in 16-bit two's complement has every bit set.
  for (int b = 0; b < 16; ++b) EXPECT_EQ(bit_of(Value{-1}, b), 1);
  EXPECT_EQ(bit_of(Value{2}, 1), 1);
  EXPECT_EQ(bit_of(Value{2}, 0), 0);
}

TEST(BitsOf, ExtractsFields) {
  EXPECT_EQ(bits_of(Value{0b1011'0110}, 1, 3), 0b011u);
  EXPECT_EQ(bits_of(Value{-1}, 4, 4), 0xFu);
}

TEST(SaturateSigned, ClampsToRange) {
  EXPECT_EQ(saturate_signed(100, 8), 100);
  EXPECT_EQ(saturate_signed(300, 8), 127);
  EXPECT_EQ(saturate_signed(-300, 8), -128);
  EXPECT_EQ(saturate_signed(-129, 8), -128);
}

TEST(RoundUp, MultiplesOfBitsPerCycle) {
  EXPECT_EQ(round_up(5, 1), 5);
  EXPECT_EQ(round_up(5, 2), 6);
  EXPECT_EQ(round_up(5, 4), 8);
  EXPECT_EQ(round_up(8, 4), 8);
  EXPECT_EQ(round_up(1, 4), 4);
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(0, 16), 0);
  EXPECT_EQ(ceil_div(1, 16), 1);
  EXPECT_EQ(ceil_div(16, 16), 1);
  EXPECT_EQ(ceil_div(17, 16), 2);
}

// Property: group precision of a singleton equals needed bits of the value.
TEST(GroupPrecision, SingletonProperty) {
  for (std::int32_t v = -1024; v <= 1024; ++v) {
    const Value value = static_cast<Value>(v);
    EXPECT_EQ(group_precision_signed({&value, 1}), needed_bits_signed(v));
  }
}

}  // namespace
}  // namespace loom
