#include <gtest/gtest.h>

#include "arch/adder_tree.hpp"
#include "common/error.hpp"

namespace loom::arch {
namespace {

TEST(AdderTree, DepthIsCeilLog2) {
  EXPECT_EQ(AdderTree(1).depth(), 0);
  EXPECT_EQ(AdderTree(2).depth(), 1);
  EXPECT_EQ(AdderTree(3).depth(), 2);
  EXPECT_EQ(AdderTree(16).depth(), 4);
  EXPECT_EQ(AdderTree(17).depth(), 5);
}

TEST(AdderTree, ReduceBitsPopcount) {
  const AdderTree tree(16);
  EXPECT_EQ(tree.reduce_bits(0xFFFF), 16);
  EXPECT_EQ(tree.reduce_bits(0x0101), 2);
  // Bits above fan-in are masked.
  EXPECT_EQ(tree.reduce_bits(0xFFFF0000), 0);
}

TEST(AdderTree, InvalidFanInThrows) {
  EXPECT_THROW(AdderTree(0), ContractViolation);
}

}  // namespace
}  // namespace loom::arch
