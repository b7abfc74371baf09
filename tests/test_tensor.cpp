#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/tensor.hpp"

namespace loom::nn {
namespace {

TEST(Shape, ElementsAndDims) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.elements(), 24);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_EQ(s.to_string(), "[2x3x4]");
}

TEST(Shape, EmptyHasZeroElements) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.elements(), 0);
}

TEST(Shape, NegativeDimThrows) {
  EXPECT_THROW(Shape({-1, 2}), ContractViolation);
}

TEST(Shape, DimOutOfRangeThrows) {
  const Shape s{2};
  EXPECT_THROW((void)s.dim(1), ContractViolation);
}

TEST(Tensor, RowMajorLayout) {
  Tensor t(Shape{2, 3});
  const std::int64_t idx01[] = {0, 1};
  const std::int64_t idx10[] = {1, 0};
  t.at(idx01) = 5;
  t.at(idx10) = 7;
  EXPECT_EQ(t.flat(1), 5);
  EXPECT_EQ(t.flat(3), 7);
}

TEST(Tensor, At3MatchesFlat) {
  Tensor t(Shape{2, 2, 2});
  t.at3(1, 0, 1) = 9;
  EXPECT_EQ(t.flat(1 * 4 + 0 * 2 + 1), 9);
}

TEST(Tensor, At4MatchesFlat) {
  Tensor t(Shape{2, 2, 2, 2});
  const std::int64_t idx[] = {1, 1, 0, 1};
  t.at(idx) = 3;
  EXPECT_EQ(t.flat(8 + 4 + 0 + 1), 3);
}

TEST(Tensor, OutOfBoundsThrows) {
  Tensor t(Shape{2, 2});
  const std::int64_t bad[] = {2, 0};
  EXPECT_THROW((void)t.at(bad), ContractViolation);
  const std::int64_t wrong_rank[] = {0};
  EXPECT_THROW((void)t.at(wrong_rank), ContractViolation);
}

TEST(Tensor, FillValue) {
  const Tensor t(Shape{4}, 7);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.flat(i), 7);
}

TEST(WideTensor, StoresWideAccumulators) {
  WideTensor t(Shape{2, 1, 1});
  t.at3(1, 0, 0) = (Wide{1} << 40);
  EXPECT_EQ(t.at3(1, 0, 0), Wide{1} << 40);
  EXPECT_EQ(t.elements(), 2);
}

}  // namespace
}  // namespace loom::nn
