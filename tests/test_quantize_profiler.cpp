#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "nn/synthetic.hpp"
#include "quant/profiler.hpp"
#include "quant/quantize.hpp"

namespace loom::quant {
namespace {

TEST(ClipSigned, SaturatesSymmetrically) {
  EXPECT_EQ(clip_signed(100, 8), 100);
  EXPECT_EQ(clip_signed(200, 8), 127);
  EXPECT_EQ(clip_signed(-200, 8), -128);
}

TEST(ClipUnsigned, FloorsAtZero) {
  EXPECT_EQ(clip_unsigned(-5, 8), 0);
  EXPECT_EQ(clip_unsigned(300, 8), 255);
  EXPECT_EQ(clip_unsigned(42, 8), 42);
}

TEST(ClipMse, ZeroWhenEverythingFits) {
  nn::Tensor t(nn::Shape{3});
  t.set_flat(0, 3);
  t.set_flat(1, -4);
  t.set_flat(2, 7);
  EXPECT_EQ(clip_mse_signed(t, 4), 0.0);
  EXPECT_GT(clip_mse_signed(t, 3), 0.0);
}

/// Tight (lossless) precision of a signed tensor: max needed bits.
int tight_precision(const nn::Tensor& t) {
  int p = 1;
  for (const Value v : t.data()) p = std::max(p, needed_bits_signed(v));
  return p;
}

TEST(Profiler, TightPrecisionMatchesMaxNeeded) {
  nn::SyntheticSpec spec{.precision = 9, .alpha = 1.0, .is_signed = true};
  const nn::Tensor t = nn::make_weight_tensor(4096, spec, 3, 1);
  EXPECT_EQ(tight_precision(t), 9);
  EXPECT_EQ(profile_precision(t, {.mse_budget = 0.0, .is_signed = true}), 9);
}

TEST(Profiler, LosslessBudgetFindsTightPrecision) {
  nn::SyntheticSpec spec{.precision = 7, .alpha = 1.0, .is_signed = true};
  const nn::Tensor t = nn::make_weight_tensor(4096, spec, 5, 1);
  const int p = profile_precision(t, {.mse_budget = 0.0, .is_signed = true});
  EXPECT_EQ(p, tight_precision(t));
}

TEST(Profiler, BudgetMonotonicallyLowersPrecision) {
  nn::SyntheticSpec spec{.precision = 12, .alpha = 4.0, .is_signed = true};
  const nn::Tensor t = nn::make_weight_tensor(8192, spec, 7, 1);
  int prev = 17;
  for (const double budget : {0.0, 1e-6, 1e-4, 1e-2, 1.0}) {
    const int p = profile_precision(t, {.mse_budget = budget, .is_signed = true});
    EXPECT_LE(p, prev) << budget;
    prev = p;
  }
}

TEST(Profiler, UnsignedActivationsProfile) {
  nn::SyntheticSpec spec{.precision = 8, .alpha = 1.0, .is_signed = false};
  const nn::Tensor t =
      nn::make_activation_tensor(nn::Shape3{4, 16, 16}, spec, 9, 1);
  const int p = profile_precision(t, {.mse_budget = 0.0, .is_signed = false});
  EXPECT_EQ(p, 8);
}

}  // namespace
}  // namespace loom::quant
