// Distribution calibration: the mechanism that makes synthetic workloads
// reproduce the paper's published effective precisions (Table 3 and the
// dynamic activation trims). Parameterized over a (precision, target) grid.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/zoo/zoo.hpp"
#include "common/bitops.hpp"
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

TEST(Calibration, BulkSampleMatchesScalarDraws) {
  // The 16-lane max-draw build (AVX-512 tier) against folding draw() one
  // element at a time, including short groups and an index range that
  // wraps modulo 2^64.
  for (const bool is_signed : {true, false}) {
    for (const double zero_fraction : {0.0, 0.45}) {
      const nn::SyntheticSource src(
          3, 11, {.precision = 9, .is_signed = is_signed, .zero_fraction = zero_fraction});
      for (const int group_size : {16, 256, 5, 24}) {
        for (const std::uint64_t begin : {std::uint64_t{0}, ~std::uint64_t{0} - 300}) {
          std::vector<MaxDrawSample::Group> bulk(40);
          src.max_draws(begin, group_size, bulk);
          std::uint64_t index = begin;
          for (std::size_t g = 0; g < bulk.size(); ++g) {
            MaxDrawSample::Group want;
            for (int i = 0; i < group_size; ++i) want.add(src.draw(index++));
            ASSERT_EQ(bulk[g].pos, want.pos)
                << "signed=" << is_signed << " zf=" << zero_fraction
                << " group=" << group_size << " begin=" << begin << " g=" << g;
            ASSERT_EQ(bulk[g].neg, want.neg)
                << "signed=" << is_signed << " zf=" << zero_fraction
                << " group=" << group_size << " begin=" << begin << " g=" << g;
          }
        }
      }
    }
  }
}

/// The one-pow-per-group measure MaxDrawSample replaced: each group's
/// magnitudes from its max draws (0 = no value), then the group precision.
double pow_reference_mean(bool is_signed,
                          const std::vector<MaxDrawSample::Group>& groups,
                          const nn::SyntheticSource& src) {
  const auto magnitude = [&](std::uint64_t r) {
    return src.magnitude_for_draw(static_cast<double>(r) * 0x1.0p-53);
  };
  double sum = 0.0;
  for (const auto& [pos, neg] : groups) {
    if (!is_signed) {
      sum += needed_bits_unsigned(static_cast<std::uint16_t>(magnitude(pos)));
      continue;
    }
    // A larger draw has a larger magnitude and nbs(m) >= nbs(-m), so a
    // positive max draw at least as large as the negative one decides
    // alone; -2^k needs one bit less than 2^k, so an equal positive
    // magnitude can still widen a negative power of two.
    int p = 0;
    if (pos >= neg) {
      p = needed_bits_signed(magnitude(pos));
    } else {
      const std::int32_t n = magnitude(neg);
      p = needed_bits_signed(-n);
      if ((n & (n - 1)) == 0) p = std::max(p, needed_bits_signed(magnitude(pos)));
    }
    sum += std::max(1, p);
  }
  return groups.empty() ? 0.0 : sum / static_cast<double>(groups.size());
}

TEST(MaxDrawSample, MeanMatchesPowReferenceAtThresholdBands) {
  // Draws within 64 keys of the guard-band edges of every 2^k and 2^k + 1
  // threshold, where the sorted-threshold count falls back to pow: one
  // sample per (signedness, precision, alpha, k). Signed groups pair every
  // such draw as positive and negative max, which covers the tie where
  // both magnitudes are 2^k; signed p = 1 runs with max forced to 1.
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  for (const bool is_signed : {true, false}) {
    for (int p = 1; p <= 16; ++p) {
      for (const double alpha :
           {1.0, 1.5, 3.0, 17.3, 1000.0, 65536.5, 8.9e6, std::exp(16.0)}) {
        const nn::SyntheticSource src(
            5, 9, {.precision = p, .alpha = alpha, .is_signed = is_signed});
        const int max = src.max_magnitude();
        for (int k = 0; (1 << k) <= max; ++k) {
          std::vector<std::uint64_t> draws = {0, 1, kDraws - 1};
          for (const int m : {1 << k, (1 << k) + 1}) {
            if (m > max) continue;
            const nn::SyntheticSource::Band band = src.threshold_band(m);
            for (const std::uint64_t edge : {band.lo, band.hi}) {
              for (const int d : {-64, -32, -2, -1, 0, 1, 2, 32, 64}) {
                const std::uint64_t r = edge + static_cast<std::uint64_t>(d);
                draws.push_back(std::min(r, kDraws - 1));
              }
            }
          }
          std::vector<MaxDrawSample::Group> groups;
          for (const std::uint64_t a : draws) {
            if (!is_signed) {
              groups.push_back({.pos = a});
              continue;
            }
            for (const std::uint64_t b : draws) groups.push_back({.pos = a, .neg = b});
          }
          const MaxDrawSample sample(is_signed, groups);
          ASSERT_EQ(sample.mean_precision(src), pow_reference_mean(is_signed, groups, src))
              << "signed=" << is_signed << " p=" << p << " alpha=" << alpha
              << " k=" << k;
        }
      }
    }
  }
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
