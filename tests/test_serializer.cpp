#include <gtest/gtest.h>

#include <vector>

#include "arch/serializer.hpp"
#include "common/error.hpp"
#include "nn/synthetic.hpp"

namespace loom::arch {
namespace {

TEST(BitPlanes, SetAndGet) {
  BitPlanes planes(100, 8);
  planes.set_bit(63, 3, 1);
  planes.set_bit(64, 3, 1);
  EXPECT_EQ(planes.bit(63, 3), 1);
  EXPECT_EQ(planes.bit(64, 3), 1);
  EXPECT_EQ(planes.bit(62, 3), 0);
  planes.set_bit(63, 3, 0);
  EXPECT_EQ(planes.bit(63, 3), 0);
}

TEST(BitPlanes, StorageBitsIsValuesTimesPrecision) {
  const BitPlanes planes(1000, 11);
  EXPECT_EQ(planes.storage_bits(), 11000);
}

TEST(BitPlanes, BoundsChecked) {
  BitPlanes planes(10, 4);
  EXPECT_THROW((void)planes.bit(10, 0), ContractViolation);
  EXPECT_THROW((void)planes.bit(0, 4), ContractViolation);
}

TEST(Serialize, RoundTripUnsigned) {
  const std::vector<Value> values = {0, 1, 127, 200, 255};
  const BitPlanes planes = serialize(values, 8);
  const auto back = deserialize(planes, /*is_signed=*/false);
  EXPECT_EQ(back, values);
}

TEST(Serialize, RoundTripSignedWithSignExtension) {
  const std::vector<Value> values = {-1, 1, -64, 63, 0};
  const BitPlanes planes = serialize(values, 7);
  const auto back = deserialize(planes, /*is_signed=*/true);
  EXPECT_EQ(back, values);
}

TEST(Serialize, RoundTripFullWidth) {
  const std::vector<Value> values = {-32768, 32767, -1, 0};
  const auto back = deserialize(serialize(values, 16), true);
  EXPECT_EQ(back, values);
}

TEST(Serialize, RandomRoundTripAcrossPrecisions) {
  for (int p = 2; p <= 15; ++p) {
    nn::SyntheticSpec spec{.precision = p, .alpha = 1.0, .is_signed = true};
    const nn::SyntheticSource src(p, 0, spec);
    std::vector<Value> values(257);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = src.at(i);
    }
    const auto back = deserialize(serialize(values, p), true);
    EXPECT_EQ(back, values) << "precision " << p;
  }
}

TEST(Serialize, PlaneLayoutIsBitInterleaved) {
  // "Pack first their bit 0, then their bit 1, ..." — plane b of value i
  // is bit b of value i.
  const std::vector<Value> values = {0b101, 0b010};
  const BitPlanes planes = serialize(values, 3);
  EXPECT_EQ(planes.bit(0, 0), 1);
  EXPECT_EQ(planes.bit(1, 0), 0);
  EXPECT_EQ(planes.bit(0, 1), 0);
  EXPECT_EQ(planes.bit(1, 1), 1);
  EXPECT_EQ(planes.bit(0, 2), 1);
  EXPECT_EQ(planes.bit(1, 2), 0);
}

}  // namespace
}  // namespace loom::arch
