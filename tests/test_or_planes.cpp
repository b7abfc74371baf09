// OR-plane precision engine: property tests that the dense plane tables
// reproduce the brute-force im2col scans exactly (padding, stride, grouped
// conv and tail-block edge cases), that the calibration fast path measures
// byte-identical means, and golden digests pinning LoomSimulator /
// StripesSimulator RunResults to pre-OR-plane main.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "common/error.hpp"
#include "golden.hpp"
#include "nn/synthetic.hpp"
#include "quant/profiles.hpp"
#include "sim/or_planes.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

// ---- Brute-force reference ------------------------------------------------
// Deliberately independent of nn/im2col.hpp: the original per-value
// div/mod + bounds-check mapping the plane builder replaced.

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

int brute_group_precision(const nn::Layer& layer, const nn::Tensor& input,
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
  return needed_bits_unsigned(ored);
}

double brute_group_mean(const nn::Layer& layer, const nn::SyntheticSource& src,
                        int cols, int lanes, int max_groups) {
  const std::int64_t windows = layer.windows();
  const std::int64_t inner = layer.inner_length();
  const std::int64_t wb_count = ceil_div(windows, cols);
  const std::int64_t ic_count = ceil_div(inner, lanes);
  const std::int64_t total =
      static_cast<std::int64_t>(layer.groups) * wb_count * ic_count;
  const std::int64_t stride = std::max<std::int64_t>(1, total / max_groups);
  double sum = 0.0;
  std::int64_t n = 0;
  for (std::int64_t t = 0; t < total; t += stride) {
    const std::int64_t g = t / (wb_count * ic_count);
    const std::int64_t rem = t % (wb_count * ic_count);
    const std::int64_t wb = rem / ic_count;
    const std::int64_t ic = rem % ic_count;
    std::uint32_t ored = 0;
    const std::int64_t w_end = std::min<std::int64_t>((wb + 1) * cols, windows);
    const std::int64_t f_end = std::min<std::int64_t>((ic + 1) * lanes, inner);
    for (std::int64_t w = wb * cols; w < w_end; ++w) {
      for (std::int64_t f = ic * lanes; f < f_end; ++f) {
        const std::int64_t kh = layer.kernel_h;
        const std::int64_t kw = layer.kernel_w;
        const std::int64_t oy = w / layer.out.w;
        const std::int64_t ox = w % layer.out.w;
        const std::int64_t ci = f / (kh * kw);
        const std::int64_t r2 = f % (kh * kw);
        const std::int64_t iy = oy * layer.stride + r2 / kw - layer.pad;
        const std::int64_t ix = ox * layer.stride + r2 % kw - layer.pad;
        if (iy < 0 || iy >= layer.in.h || ix < 0 || ix >= layer.in.w) continue;
        const std::int64_t c = g * layer.group_in_channels() + ci;
        const std::int64_t idx = (c * layer.in.h + iy) * layer.in.w + ix;
        ored |= static_cast<std::uint16_t>(src.at(static_cast<std::uint64_t>(idx)));
      }
    }
    sum += std::min(needed_bits_unsigned(ored), layer.act_precision);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

struct Geometry {
  std::int64_t in_c, in_h, in_w;
  int out_c, kernel, stride, pad, groups;
};

// Padding / stride / grouped-conv / tail-block edge cases: 1x1 kernels
// without padding, 5x5 with heavy padding, stride > kernel, groups with a
// non-multiple-of-16 inner length, and odd spatial extents.
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

TEST(OrPlanes, MatchesBruteForceScanAcrossGeometries) {
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
    planes.build(input);  // rebuild path must re-zero rows before ORing
    ASSERT_EQ(planes.windows(), layer.windows());
    ASSERT_EQ(planes.ic_count(), ceil_div(layer.inner_length(), kLanes));

    const std::int64_t windows = layer.windows();
    for (const int cols :
         {1, 3, 16, static_cast<int>(windows) + 5}) {
      const std::int64_t wb_count = ceil_div(windows, cols);
      for (std::int64_t g = 0; g < layer.groups; ++g) {
        for (std::int64_t wb = 0; wb < wb_count; ++wb) {
          for (std::int64_t ic = 0; ic < planes.ic_count(); ++ic) {
            const int expected =
                brute_group_precision(layer, input, g, wb, ic, cols, kLanes);
            const int got = needed_bits_unsigned(planes.group_or(g, ic, wb, cols));
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

TEST(OrPlanes, CalibrationPlanesMeasureByteIdenticalMeans) {
  constexpr int kLanes = 16;
  constexpr int kCols = 16;
  constexpr int kMaxGroups = 320;
  for (const Geometry& geo : kGeometries) {
    const nn::Layer layer = make_layer(geo);
    nn::SyntheticSpec spec;
    spec.precision = layer.act_precision;
    spec.zero_fraction = 0.45;
    spec.alpha = 1.0;
    const quant::MaxDrawSample sample =
        calibration_sample(layer, kLanes, kCols, kMaxGroups,
                           nn::SyntheticSource(1, 42, spec));
    for (const double alpha : {1.0, 2.5, 17.0, 803.0}) {
      spec.alpha = alpha;
      const nn::SyntheticSource src(1, 42, spec);
      // Exact equality: the fast path must reproduce the brute scan's sum
      // bit for bit so the calibration bisection path is unchanged.
      EXPECT_EQ(sample.mean_precision(src),
                brute_group_mean(layer, src, kCols, kLanes, kMaxGroups))
          << "alpha=" << alpha << " k=" << geo.kernel << " s=" << geo.stride;
    }
  }
}

// ---- Workload-level consistency -------------------------------------------

quant::PrecisionProfile workload_profile() {
  quant::PrecisionProfile p;
  p.network = "orplane-wl";
  p.conv_act = {8};
  p.conv_weight = 10;
  p.dynamic_act_trim = 1.0;
  return p;
}

TEST(OrPlanes, WorkloadTablesNestAcrossColumnCounts) {
  // A 16-window detection group is the union of its four 4-window groups,
  // and needed_bits of an OR is the max of the parts' needed_bits, so the
  // cols=16 table must equal the max over the cols=4 table's sub-blocks
  // (the tail block only covers the sub-blocks that exist).
  auto profile = workload_profile();
  nn::Network net("orplane-wl", nn::Shape3{8, 12, 12});
  net.add_conv("c1", 16, 3, 1, 1).precision_group = 0;
  quant::apply_profile(net, profile);
  NetworkWorkload wl(std::move(net), profile);
  LayerWorkload& lw = wl.layer(0);
  const nn::Layer& layer = lw.layer();

  const ActPrecisionTable t4 = lw.act_group_precision_table(4);
  const ActPrecisionTable t16 = lw.act_group_precision_table(16);
  ASSERT_EQ(t4.wb_count(), ceil_div(layer.windows(), 4));
  ASSERT_EQ(t16.wb_count(), ceil_div(layer.windows(), 16));
  ASSERT_EQ(t16.ic_count(), ceil_div(layer.inner_length(), 16));
  ASSERT_EQ(t4.ic_count(), t16.ic_count());
  for (std::int64_t wb = 0; wb < t16.wb_count(); ++wb) {
    for (std::int64_t ic = 0; ic < t16.ic_count(); ++ic) {
      int widest = 0;
      for (std::int64_t sub = wb * 4; sub < std::min(t4.wb_count(), wb * 4 + 4);
           ++sub) {
        widest = std::max(widest, t4.at(0, sub, ic));
      }
      EXPECT_EQ(t16.at(0, wb, ic), widest) << "wb=" << wb << " ic=" << ic;
      EXPECT_LE(widest, layer.act_precision);
    }
  }
}

TEST(OrPlanes, WorkloadRejectsOutOfRangeArguments) {
  auto profile = workload_profile();
  profile.fc_weight = {9};
  nn::Network net("orplane-wl", nn::Shape3{8, 12, 12});
  net.add_conv("c1", 16, 3, 1, 1).precision_group = 0;
  net.add_fc("f1", 10);
  quant::apply_profile(net, profile);
  NetworkWorkload wl(std::move(net), profile);
  (void)wl.layer(0).act_group_precision_table(16);
  EXPECT_THROW((void)wl.layer(0).act_group_precision_table(0),
               ContractViolation);
  EXPECT_THROW((void)wl.layer(0).act_group_precision_table(-3),
               ContractViolation);
  // Detection groups exist for convolutions only.
  EXPECT_THROW((void)wl.layer(1).act_group_precision_table(16),
               ContractViolation);
}

// ---- Golden byte-identity vs pre-OR-plane main ----------------------------
// FNV-1a digests of full RunResults captured on main immediately before the
// OR-plane engine landed (same seeds, same profiles, same configs). The
// engine is pure mechanical sympathy: any digest change is a model change
// and must be rejected. Values assume IEEE-754 doubles and glibc's
// correctly-rounded pow/exp (any Linux/x86-64 CI runner).

using golden::Fnv;

std::uint64_t digest(const RunResult& r) {
  Fnv f;
  f.str(r.arch_name);
  f.str(r.network);
  f.u64(static_cast<std::uint64_t>(r.bits_per_cycle));
  for (const auto& l : r.layers) {
    f.str(l.name);
    f.u64(static_cast<std::uint64_t>(l.kind));
    f.u64(l.compute_cycles);
    f.u64(l.stall_cycles);
    f.i64(l.macs);
    f.f64(l.utilization);
    f.f64(l.mean_act_precision);
    f.f64(l.mean_weight_precision);
    const auto& a = l.activity;
    f.u64(a.mac_ops);
    f.u64(a.sip_lane_bit_ops);
    f.u64(a.stripes_lane_ops);
    f.u64(a.sip_idle_lane_cycles);
    f.u64(a.stripes_idle_lane_cycles);
    f.u64(a.mac_idle_cycles);
    f.u64(a.wr_bits_loaded);
    f.u64(a.detector_values);
    f.u64(a.transposer_bits);
    f.u64(a.abin_read_bits);
    f.u64(a.abin_write_bits);
    f.u64(a.about_read_bits);
    f.u64(a.about_write_bits);
    f.u64(a.am_read_bits);
    f.u64(a.am_write_bits);
    f.u64(a.wm_read_bits);
    f.u64(a.wm_write_bits);
    f.u64(a.dram_read_bits);
    f.u64(a.dram_write_bits);
    f.u64(a.cycles);
  }
  return f.h;
}

TEST(OrPlanes, GoldenRunResultsByteIdenticalToPreChangeMain) {
  {
    quant::PrecisionProfile p;
    p.network = "golden-a";
    p.conv_act = {8, 6};
    p.conv_weight = 10;
    p.fc_weight = {9};
    p.dynamic_act_trim = 1.0;
    nn::Network net("golden-a", nn::Shape3{8, 16, 16});
    net.add_conv("c1", 32, 3, 1, 1).precision_group = 0;
    net.add_conv("c2", 16, 3, 1, 1).precision_group = 1;
    net.add_fc("f1", 100);
    quant::apply_profile(net, p);
    NetworkWorkload wl(std::move(net), p);

    auto loom_sim = make_loom_simulator(arch::LoomConfig{}, {});
    EXPECT_EQ(digest(loom_sim->run(wl)), 0x88b41b8aadf8f127ull);

    arch::StripesConfig scfg;
    scfg.dynamic_act_precision = true;
    auto stripes = make_stripes_simulator(scfg, {});
    EXPECT_EQ(digest(stripes->run(wl)), 0x85b0a9b1eced15b2ull);
  }
  {
    quant::PrecisionProfile p;
    p.network = "golden-b";
    p.conv_act = {9, 7, 8};
    p.conv_weight = 11;
    p.dynamic_act_trim = 1.5;
    // Edge-case geometry: grouped conv, stride-2 with asymmetric tail,
    // 1x1 kernel without padding, 5x5 kernel with heavy padding.
    nn::Network net("golden-b", nn::Shape3{16, 13, 13});
    net.add_conv("g1", 32, 3, 2, 1, 4).precision_group = 0;
    net.add_conv("p0", 24, 1, 1, 0).precision_group = 1;
    net.add_conv("k5", 16, 5, 3, 2).precision_group = 2;
    quant::apply_profile(net, p);
    NetworkWorkload wl(std::move(net), p);

    arch::LoomConfig lcfg;
    lcfg.per_group_weights = true;
    auto loom_sim = make_loom_simulator(lcfg, {});
    EXPECT_EQ(digest(loom_sim->run(wl)), 0xed3820f81fa8b8a6ull);

    arch::StripesConfig scfg;
    scfg.dynamic_act_precision = true;
    auto stripes = make_stripes_simulator(scfg, {});
    EXPECT_EQ(digest(stripes->run(wl)), 0x59437d6fec131150ull);
  }
}

}  // namespace
}  // namespace loom::sim
