// Term-serial (Laconic-style) simulator: brute-force per-group term-count
// oracle vs the popcount fast path (same padding / stride / grouped-conv /
// tail geometries as test_or_planes), the NAF-vs-sign-magnitude term
// reconciliation pins, and the compute-callbacks-sum-exactly invariant
// under constrained memory. The zoo golden digests live in test_sim_golden.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "arch/config.hpp"
#include "common/bitops.hpp"
#include "common/error.hpp"
#include "nn/synthetic.hpp"
#include "quant/profiles.hpp"
#include "sim/laconic_sim.hpp"
#include "sim/or_planes.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

// ---- Brute-force term-count oracle ----------------------------------------
// Deliberately independent of the plane builder: the original per-value
// div/mod + bounds-check im2col mapping, ORed over the detection group,
// masked to the layer Pa and popcounted — the cycles a sequencer
// synchronizing the group at its slowest lane spends on the activation side.

Value brute_window_value(const nn::Layer& layer, const nn::Tensor& input,
                         std::int64_t g, std::int64_t window,
                         std::int64_t flat) {
  const std::int64_t kh = layer.kernel_h;
  const std::int64_t kw = layer.kernel_w;
  const std::int64_t oy = window / layer.out.w;
  const std::int64_t ox = window % layer.out.w;
  const std::int64_t ci = flat / (kh * kw);
  const std::int64_t rem = flat % (kh * kw);
  const std::int64_t iy = oy * layer.stride + rem / kw - layer.pad;
  const std::int64_t ix = ox * layer.stride + rem % kw - layer.pad;
  if (iy < 0 || iy >= layer.in.h || ix < 0 || ix >= layer.in.w) return 0;
  return input.at3(g * layer.group_in_channels() + ci, iy, ix);
}

int brute_group_terms(const nn::Layer& layer, const nn::Tensor& input,
                      std::int64_t g, std::int64_t wb, std::int64_t ic,
                      int cols, int lanes) {
  const std::int64_t windows = layer.windows();
  const std::int64_t inner = layer.inner_length();
  std::uint32_t ored = 0;
  const std::int64_t w_end = std::min<std::int64_t>((wb + 1) * cols, windows);
  const std::int64_t f_end = std::min<std::int64_t>((ic + 1) * lanes, inner);
  for (std::int64_t w = wb * cols; w < w_end; ++w) {
    for (std::int64_t f = ic * lanes; f < f_end; ++f) {
      ored |= static_cast<std::uint16_t>(brute_window_value(layer, input, g, w, f));
    }
  }
  const std::uint32_t mask =
      (std::uint32_t{1} << layer.act_precision) - 1u;
  return std::max(1, std::popcount(ored & mask));
}

struct Geometry {
  std::int64_t in_c, in_h, in_w;
  int out_c, kernel, stride, pad, groups;
};

// The same padding / stride / grouped-conv / tail-block edge cases
// test_or_planes sweeps: 1x1 kernels without padding, 5x5 with heavy
// padding, stride > kernel, groups with a non-multiple-of-16 inner length,
// and odd spatial extents.
const Geometry kGeometries[] = {
    {8, 9, 9, 12, 3, 1, 1, 1},    // classic 3x3 same-conv, inner tail (72)
    {8, 7, 11, 8, 1, 1, 0, 1},    // 1x1, no padding, non-square
    {3, 13, 13, 10, 5, 2, 2, 1},  // 5x5 stride 2, heavy padding
    {16, 11, 9, 32, 3, 2, 1, 4},  // grouped, stride 2, inner tail (36)
    {4, 10, 10, 6, 3, 3, 1, 1},   // stride 3 > pad
    {8, 6, 6, 8, 5, 1, 2, 2},     // kernel ~ input size, grouped
};

nn::Layer make_layer(const Geometry& g) {
  nn::Layer layer = nn::make_conv("t", nn::Shape3{g.in_c, g.in_h, g.in_w},
                                  g.out_c, g.kernel, g.stride, g.pad, g.groups);
  layer.act_precision = 9;
  return layer;
}

TEST(LaconicSim, TermCountsMatchBruteForceScanAcrossGeometries) {
  constexpr int kLanes = 16;
  for (const Geometry& geo : kGeometries) {
    const nn::Layer layer = make_layer(geo);
    nn::SyntheticSpec spec;
    spec.precision = 9;
    spec.alpha = 3.0;
    spec.zero_fraction = 0.45;
    const nn::Tensor input = nn::make_activation_tensor(layer.in, spec, 7, 11);

    ActOrPlanes planes(layer, kLanes);
    planes.build(input);
    const std::uint32_t mask =
        (std::uint32_t{1} << layer.act_precision) - 1u;

    const std::int64_t windows = layer.windows();
    for (const int cols : {1, 3, 16, static_cast<int>(windows) + 5}) {
      const std::int64_t wb_count = ceil_div(windows, cols);
      for (std::int64_t g = 0; g < layer.groups; ++g) {
        for (std::int64_t wb = 0; wb < wb_count; ++wb) {
          for (std::int64_t ic = 0; ic < planes.ic_count(); ++ic) {
            const int expected =
                brute_group_terms(layer, input, g, wb, ic, cols, kLanes);
            const int got = std::max(
                1, std::popcount(static_cast<std::uint32_t>(
                       planes.group_or(g, ic, wb, cols)) &
                   mask));
            ASSERT_EQ(got, expected)
                << "k=" << geo.kernel << " s=" << geo.stride << " p=" << geo.pad
                << " groups=" << geo.groups << " cols=" << cols << " g=" << g
                << " wb=" << wb << " ic=" << ic;
          }
        }
      }
    }
  }
}

// ---- Workload-level fast path ---------------------------------------------

quant::PrecisionProfile workload_profile() {
  quant::PrecisionProfile p;
  p.network = "laconic-wl";
  p.conv_act = {8};
  p.conv_weight = 10;
  p.dynamic_act_trim = 1.0;
  return p;
}

TEST(LaconicSim, WorkloadTermTableBoundedByPrecisionTable) {
  auto profile = workload_profile();
  nn::Network net("laconic-wl", nn::Shape3{8, 12, 12});
  net.add_conv("c1", 16, 3, 1, 1).precision_group = 0;
  quant::apply_profile(net, profile);
  NetworkWorkload wl(std::move(net), profile);
  LayerWorkload& lw = wl.layer(0);
  const nn::Layer& layer = lw.layer();

  for (const int cols : {4, 16}) {
    const ActTermTable terms = lw.act_group_term_table(cols);
    const ActPrecisionTable precisions = lw.act_group_precision_table(cols);
    ASSERT_EQ(terms.wb_count(), ceil_div(layer.windows(), cols));
    ASSERT_EQ(terms.ic_count(), ceil_div(layer.inner_length(), 16));
    ASSERT_EQ(precisions.wb_count(), terms.wb_count());
    ASSERT_EQ(precisions.ic_count(), terms.ic_count());
    for (std::int64_t wb = 0; wb < terms.wb_count(); ++wb) {
      for (std::int64_t ic = 0; ic < terms.ic_count(); ++ic) {
        // Essential planes are a subset of the positional planes: the term
        // count never exceeds the detected precision and never drops to 0.
        EXPECT_LE(terms.at(0, wb, ic), precisions.at(0, wb, ic));
        EXPECT_GE(terms.at(0, wb, ic), 1);
      }
    }
  }
}

TEST(LaconicSim, WorkloadRejectsOutOfRangeTermArguments) {
  auto profile = workload_profile();
  profile.fc_weight = {9};
  nn::Network net("laconic-wl", nn::Shape3{8, 12, 12});
  net.add_conv("c1", 16, 3, 1, 1).precision_group = 0;
  net.add_fc("f1", 10);
  quant::apply_profile(net, profile);
  NetworkWorkload wl(std::move(net), profile);
  (void)wl.layer(0).act_group_term_table(16);
  EXPECT_THROW((void)wl.layer(0).act_group_term_table(0), ContractViolation);
  // Detection groups exist for convolutions only.
  EXPECT_THROW((void)wl.layer(1).act_group_term_table(16), ContractViolation);
}

// ---- NAF vs sign-magnitude reconciliation ---------------------------------
// essential_weight_planes counts *sign-magnitude* planes (storage layout,
// what sparse_weight_skipping prices); the term-serial compute path follows
// the NAF digit serialization. The two differ by design: NAF folds the sign
// pass into signed digits and needs no digit at runs of adjacent ones.

TEST(LaconicSim, NafTermsReconcileWithSignMagnitudePlanes) {
  // Weight 7 = 0b111: three magnitude planes + one sign pass = 4
  // sign-magnitude planes, but NAF is 8 - 1 — two digits at positions 3,0.
  EXPECT_EQ(needed_bits_unsigned(7) + 1, 4);
  EXPECT_EQ(std::popcount(naf_digits(7).positions()), 2);
  const NafDigits d7 = naf_digits(7);
  EXPECT_EQ(d7.plus, 0b1000u);
  EXPECT_EQ(d7.minus, 0b0001u);
  EXPECT_EQ(d7.positions(), 0b1001u);

  // 21 = 0b10101 has no adjacent ones: NAF keeps the three set bits but
  // still drops the 5+1-plane sign-magnitude walk to 3 terms.
  EXPECT_EQ(needed_bits_unsigned(21) + 1, 6);
  EXPECT_EQ(std::popcount(naf_digits(21).positions()), 3);
  EXPECT_EQ(naf_digits(21).positions(), 0b10101u);

  // Zero has no terms at the lane level; group models clamp to 1 themselves.
  EXPECT_EQ(std::popcount(naf_digits(0).positions()), 0);

  // Workload level, measured over the same streamed weight source: the
  // per-weight NAF mean undercuts the sign-magnitude plane count, and the
  // synchronized group walk sits between the two definitions' regimes —
  // at least the per-weight mean, never more than Pw + 1 positions.
  auto profile = workload_profile();
  nn::Network net("laconic-wl", nn::Shape3{8, 12, 12});
  net.add_conv("c1", 16, 3, 1, 1).precision_group = 0;
  quant::apply_profile(net, profile);
  NetworkWorkload wl(std::move(net), profile);
  LayerWorkload& lw = wl.layer(0);
  const LayerWorkload::WeightTermStats terms = lw.naf_weight_terms();
  const double planes = lw.essential_weight_planes();
  EXPECT_LT(terms.mean_per_weight, planes);
  EXPECT_GE(terms.synced_per_group, terms.mean_per_weight);
  EXPECT_LE(terms.synced_per_group,
            static_cast<double>(lw.profile_weight_precision()) + 1.0);
  EXPECT_GE(terms.synced_per_group, 1.0);
}

// ---- Compute/memory separation under constrained memory -------------------

TEST(LaconicSim, ComputeCallbacksSumExactlyUnderConstrainedMemory) {
  // Starved AM/WM force multi-tile schedules on every layer; the tiled
  // BlockCompute callbacks must still sum exactly to the analytic compute
  // cycles — memory never changes compute, only stalls.
  quant::PrecisionProfile p;
  p.network = "laconic-mem";
  p.conv_act = {8, 6};
  p.conv_weight = 10;
  p.fc_weight = {9};
  p.dynamic_act_trim = 1.0;
  nn::Network net("laconic-mem", nn::Shape3{8, 16, 16});
  net.add_conv("c1", 32, 3, 1, 1).precision_group = 0;
  net.add_conv("c2", 16, 3, 1, 1).precision_group = 1;
  net.add_fc("f1", 100);
  quant::apply_profile(net, p);
  NetworkWorkload wl(std::move(net), p);

  auto free_sim = make_laconic_simulator(arch::LaconicConfig{}, {});
  const RunResult free_run = free_sim->run(wl);

  SimOptions constrained;
  constrained.model_offchip = true;
  constrained.am_bytes = 64 << 10;
  constrained.wm_bytes = 64 << 10;
  auto tight_sim = make_laconic_simulator(arch::LaconicConfig{}, constrained);
  const RunResult tight_run = tight_sim->run(wl);

  EXPECT_GT(tight_run.offchip_bits(), 0u);
  EXPECT_EQ(free_run.offchip_bits(), 0u);
  EXPECT_EQ(free_run.stall_cycles(), 0u);

  ASSERT_EQ(tight_run.layers.size(), free_run.layers.size());
  for (std::size_t i = 0; i < tight_run.layers.size(); ++i) {
    EXPECT_EQ(tight_run.layers[i].compute_cycles,
              free_run.layers[i].compute_cycles)
        << "layer " << i;
  }
}

}  // namespace
}  // namespace loom::sim
