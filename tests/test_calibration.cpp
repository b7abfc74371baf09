// Distribution calibration: the mechanism that makes synthetic workloads
// reproduce the paper's published effective precisions (Table 3 and the
// dynamic activation trims). Parameterized over a (precision, target) grid.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/zoo/zoo.hpp"
#include "quant/calibration.hpp"
#include "quant/group_precision.hpp"
#include "quant/profiles.hpp"
#include "serve/model_registry.hpp"

namespace loom::quant {
namespace {

TEST(Calibration, MeasureIsMonotoneInAlpha) {
  nn::SyntheticSpec spec{.precision = 10, .alpha = 1.0, .is_signed = true};
  CalibrationOptions opts;
  double prev = 1e9;
  for (const double alpha : {1.0, 4.0, 16.0, 64.0, 256.0}) {
    spec.alpha = alpha;
    const double m = measure_mean_group_precision(spec, opts);
    EXPECT_LE(m, prev + 0.05) << alpha;
    prev = m;
  }
}

// GoogleTest names each case by the bytes of its parameter, so the struct
// has no implicit padding: padding left uninitialized put stack residue
// (an ASLR-dependent address byte) into the test names.
struct GridCase {
  GridCase(int p, bool s, double t) : precision(p), is_signed(s), target(t) {}
  int precision;
  bool is_signed;
  std::uint8_t unused[3]{};
  double target;
};
static_assert(sizeof(GridCase) ==
              sizeof(int) + sizeof(bool) + 3 + sizeof(double));

class CalibrationGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(CalibrationGrid, HitsTargetWithinTolerance) {
  const GridCase c = GetParam();
  nn::SyntheticSpec spec;
  spec.precision = c.precision;
  spec.is_signed = c.is_signed;
  CalibrationOptions opts;
  opts.group_size = 16;
  const nn::SyntheticSpec calibrated =
      calibrate_to_group_precision(spec, c.target, opts);
  const double measured = measure_mean_group_precision(calibrated, opts);
  EXPECT_NEAR(measured, c.target, 0.15)
      << "precision=" << c.precision << " target=" << c.target;
}

INSTANTIATE_TEST_SUITE_P(
    WeightLikeTargets, CalibrationGrid,
    ::testing::Values(GridCase{11, true, 8.36},   // AlexNet Table 3
                      GridCase{11, true, 6.19},   // GoogLeNet Table 3
                      GridCase{12, true, 9.94},   // VGGS Table 3
                      GridCase{12, true, 7.20},   // VGG19 Table 3
                      GridCase{10, true, 8.0},
                      GridCase{11, true, 4.83}));  // GoogLeNet minimum

INSTANTIATE_TEST_SUITE_P(
    ActivationLikeTargets, CalibrationGrid,
    ::testing::Values(GridCase{8, false, 6.5}, GridCase{9, false, 7.0},
                      GridCase{13, false, 10.0}, GridCase{5, false, 3.5}));

TEST(Calibration, UnreachableHighTargetFallsBackToAlphaOne) {
  nn::SyntheticSpec spec{.precision = 8, .alpha = 1.0, .is_signed = true};
  const nn::SyntheticSpec calibrated =
      calibrate_to_group_precision(spec, 15.0, {});
  EXPECT_DOUBLE_EQ(calibrated.alpha, 1.0);
}

TEST(Calibration, CacheReturnsSameSpec) {
  const auto& a = calibrated_spec_cached(11, true, 0.0, 16, 8.36);
  const auto& b = calibrated_spec_cached(11, true, 0.0, 16, 8.36);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.precision, 11);
  EXPECT_TRUE(a.is_signed);
}

TEST(Calibration, ZeroFractionCompatible) {
  nn::SyntheticSpec spec{.precision = 9, .alpha = 1.0, .is_signed = false,
                         .zero_fraction = 0.45};
  CalibrationOptions opts;
  opts.group_size = 256;
  const auto calibrated = calibrate_to_group_precision(spec, 7.0, opts);
  EXPECT_NEAR(measure_mean_group_precision(calibrated, opts), 7.0, 0.15);
}

TEST(Calibration, CacheKeysOnExactArguments) {
  // Both pairs used to share one key (target rounded to 0.01, zero
  // fraction to 0.001), so the second caller got the first caller's spec.
  const auto& a = calibrated_spec_cached(11, true, 0.0, 16, 8.364);
  const auto& b = calibrated_spec_cached(11, true, 0.0, 16, 8.356);
  EXPECT_NE(&a, &b);
  const nn::SyntheticSpec spec{.precision = 11, .is_signed = true};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.alpha),
            std::bit_cast<std::uint64_t>(
                calibrate_to_group_precision(spec, 8.364).alpha));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.alpha),
            std::bit_cast<std::uint64_t>(
                calibrate_to_group_precision(spec, 8.356).alpha));

  const auto& c = calibrated_spec_cached(9, false, 0.45, 256, 7.0);
  const auto& d = calibrated_spec_cached(9, false, 0.4504, 256, 7.0);
  EXPECT_NE(&c, &d);
  EXPECT_EQ(c.zero_fraction, 0.45);
  EXPECT_EQ(d.zero_fraction, 0.4504);
}

// ---- Max-draw exactness ----------------------------------------------------

/// Reference for calibrate_to_group_precision: the same bisection, with
/// every step measured by the full value scan.
nn::SyntheticSpec reference_calibration(nn::SyntheticSpec spec, double target,
                                        const CalibrationOptions& opts) {
  spec.alpha = 1.0;
  if (target >= measure_mean_group_precision(spec, opts)) return spec;
  double lo = 0.0;
  double hi = 16.0;
  for (int it = 0; it < opts.max_iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    spec.alpha = std::exp(mid);
    const double measured = measure_mean_group_precision(spec, opts);
    if (std::abs(measured - target) <= opts.tolerance) return spec;
    if (measured > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  spec.alpha = std::exp(0.5 * (lo + hi));
  return spec;
}

void expect_same_alpha(const nn::SyntheticSpec& spec, double target,
                       const CalibrationOptions& opts) {
  const nn::SyntheticSpec want = reference_calibration(spec, target, opts);
  const nn::SyntheticSpec got = calibrate_to_group_precision(spec, target, opts);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.alpha),
            std::bit_cast<std::uint64_t>(want.alpha))
      << "p=" << spec.precision << " signed=" << spec.is_signed
      << " zf=" << spec.zero_fraction << " group=" << opts.group_size
      << " target=" << target << " tol=" << opts.tolerance
      << " alpha got " << got.alpha << " want " << want.alpha;
}

TEST(Calibration, MaxDrawBisectionMatchesScanBitForBit) {
  for (const bool is_signed : {true, false}) {
    for (const int group_size : {16, 256}) {
      for (const double zero_fraction : {0.0, 0.45}) {
        for (int p = 1; p <= 16; ++p) {
          const nn::SyntheticSpec spec{.precision = p,
                                       .is_signed = is_signed,
                                       .zero_fraction = zero_fraction};
          CalibrationOptions opts;
          opts.group_size = group_size;
          opts.sample_groups = 48;
          // Clamps at alpha 1: no spec of precision p averages above p.
          expect_same_alpha(spec, static_cast<double>(p), opts);
          // Stops inside the tolerance (signed p = 1: +1 needs 2 bits, -1
          // needs 1, so the target sits between them).
          expect_same_alpha(spec, 1.3 + 0.6 * (p - 1), opts);
          // Never inside the tolerance: runs every iteration.
          opts.tolerance = -1.0;
          opts.max_iterations = 24;
          expect_same_alpha(spec, 1.3 + 0.6 * (p - 1), opts);
        }
      }
    }
  }
}

TEST(Calibration, MaxDrawBisectionMatchesScanAtDefaultSample) {
  expect_same_alpha({.precision = 11, .is_signed = true}, 8.36, {});
}

TEST(Calibration, RegisteredModelInputSpecsArePinned) {
  // Input calibrations of the registered zoo models, captured before the
  // max-draw reduction: the serving inputs must stay bit-identical.
  struct Pin {
    const char* network;
    std::uint64_t alpha_bits;
  };
  serve::ModelRegistry registry;
  for (const Pin pin : {Pin{"nin", 0x406660a775d11f73ull},
                        Pin{"alexnet", 0x40704792407e5e6bull}}) {
    nn::Network net = nn::zoo::make(pin.network);
    const PrecisionProfile profile =
        profile_for(pin.network, AccuracyTarget::k100);
    apply_profile(net, profile);
    const auto model =
        registry.add_synthetic(pin.network, std::move(net), profile, 7);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(model->input_spec.alpha),
              pin.alpha_bits)
        << pin.network << " alpha " << model->input_spec.alpha;
  }
}

}  // namespace
}  // namespace loom::quant
