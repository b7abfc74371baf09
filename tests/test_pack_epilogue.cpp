// The non-GEMM half of a layer run, each part against its oracle:
//   * the gemm kernel's bounds-free im2col pack: accumulators against the
//     scalar arch::Sip oracle; statistics against the oracle's at batch 1
//     and, when slabs span requests, against ORs gathered independently
//     through nn::im2col_input_index;
//   * the engine's one-pass epilogue against nn::choose_requant_shift +
//     nn::requantize at adversarial accumulator extremes;
//   * the engine's pooling against nn::pool_forward.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/im2col.hpp"
#include "nn/reference.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"
#include "sim/gemm_engine.hpp"

namespace loom::sim {
namespace {

/// Raw 16-bit activations, one in eight zero. Unsigned values take a random
/// width up to 16 bits — wider than the profile Pa, so the pack's mask
/// matters; signed ones (the pooling inputs) are any 16-bit pattern.
nn::Tensor random_acts(const nn::Shape& shape, bool is_signed,
                       std::uint64_t seed) {
  nn::Tensor t(shape);
  const CounterRng rng(seed, 0);
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const std::uint64_t u = rng.bits(static_cast<std::uint64_t>(i));
    if ((u & 7) == 0) continue;
    const std::uint32_t width = is_signed ? 16 : 1 + (u >> 3) % 16;
    const auto raw = static_cast<std::uint32_t>(u >> 8) & ((1u << width) - 1);
    t.set_flat(i, static_cast<Value>(static_cast<std::uint16_t>(raw)));
  }
  return t;
}

/// Any 16-bit weight pattern: the kernel reads only the low Pw bits.
nn::Tensor random_weights(std::int64_t n, std::uint64_t seed) {
  nn::Tensor t(nn::Shape{n});
  const CounterRng rng(seed, 1);
  for (std::int64_t i = 0; i < n; ++i) {
    t.set_flat(i, static_cast<Value>(static_cast<std::uint16_t>(
                      rng.bits(static_cast<std::uint64_t>(i)))));
  }
  return t;
}

/// The statistics the pack must produce: per slab of the batch-concatenated
/// window axis (whole column groups, at most 64 windows), the raw OR of
/// every (chunk, column group) gathered through im2col_input_index.
ConvStats gathered_stats(const nn::Layer& layer, const SliceSpec& spec,
                         const GridOptions& grid,
                         const std::vector<nn::Tensor>& inputs) {
  const std::int64_t windows = layer.windows();
  const std::int64_t total = windows * static_cast<std::int64_t>(inputs.size());
  const std::int64_t slab = (64 / grid.cols) * grid.cols;
  const std::int64_t inner = layer.inner_length();
  const std::int64_t ic_count = ceil_div(inner, std::int64_t{grid.lanes});
  ConvStats st;
  for (std::int64_t g = 0; g < layer.groups; ++g) {
    for (std::int64_t w0 = 0; w0 < total; w0 += slab) {
      const std::int64_t cu = std::min(slab, total - w0);
      const std::int64_t n_groups = ceil_div(cu, std::int64_t{grid.cols});
      std::vector<std::uint32_t> ors(static_cast<std::size_t>(ic_count * n_groups));
      for (std::int64_t c = 0; c < cu; ++c) {
        const nn::Tensor& in = inputs[static_cast<std::size_t>((w0 + c) / windows)];
        for (std::int64_t k = 0; k < inner; ++k) {
          const std::int64_t idx =
              nn::im2col_input_index(layer, g, (w0 + c) % windows, k);
          if (idx < 0) continue;
          ors[static_cast<std::size_t>((k / grid.lanes) * n_groups +
                                       c / grid.cols)] |=
              static_cast<std::uint16_t>(in.flat(idx));
        }
      }
      conv_stream_stats(layer, spec, grid, cu, ors, st);
    }
  }
  return st;
}

void expect_stats_eq(const ConvStats& a, const ConvStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.streamed_pa, b.streamed_pa);
  EXPECT_EQ(a.act_bits_streamed, b.act_bits_streamed);
  EXPECT_EQ(a.weight_bits_streamed, b.weight_bits_streamed);
  EXPECT_EQ(a.detect_invocations, b.detect_invocations);
  EXPECT_EQ(a.detect_values, b.detect_values);
}

struct PackCase {
  nn::Layer layer;
  SliceSpec spec;
  GridOptions grid;
  int batch = 1;
};

/// Run `pc` on the gemm kernel as one batch and check it: accumulators per
/// request against the scalar oracle, statistics against the gathered ORs
/// and, at batch 1, the oracle's own.
void check_pack(const PackCase& pc, std::uint64_t seed) {
  const nn::Layer& layer = pc.layer;
  const nn::Shape in_shape{layer.in.c, layer.in.h, layer.in.w};
  const nn::Shape out_shape{layer.out.c, layer.out.h, layer.out.w};
  std::vector<nn::Tensor> inputs;
  for (int r = 0; r < pc.batch; ++r) {
    inputs.push_back(random_acts(in_shape, /*is_signed=*/false, seed * 16 + r));
  }
  const nn::Tensor weights = random_weights(layer.weight_count(), seed);

  std::vector<nn::WideTensor> wides(inputs.size(), nn::WideTensor(out_shape));
  std::vector<const nn::Tensor*> in_ptrs;
  std::vector<nn::WideTensor*> wide_ptrs;
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    in_ptrs.push_back(&inputs[r]);
    wide_ptrs.push_back(&wides[r]);
  }
  GemmEngine gemm(pc.grid);
  const ConvStats st = gemm.run_conv_batch(
      layer, in_ptrs, prepare_conv(layer, weights, pc.spec.weight_precision),
      pc.spec, wide_ptrs);
  expect_stats_eq(st, gathered_stats(layer, pc.spec, pc.grid, inputs));

  SipGridOracle oracle(pc.grid);
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    nn::WideTensor want(out_shape);
    const nn::Tensor* in = &inputs[r];
    nn::WideTensor* out = &want;
    const ConvStats oracle_st = oracle.run_conv_batch(
        layer, std::span<const nn::Tensor* const>(&in, 1), weights, pc.spec,
        std::span<nn::WideTensor* const>(&out, 1));
    EXPECT_EQ(wides[r], want) << "request " << r;
    if (pc.batch == 1) expect_stats_eq(st, oracle_st);
  }
}

std::string describe(const nn::Layer& l, const SliceSpec& s, int batch) {
  std::ostringstream out;
  out << 'k' << l.kernel_h << " s" << l.stride << " p" << l.pad << " g"
      << l.groups << " pa" << s.act_precision << " pw" << s.weight_precision
      << " batch " << batch;
  return out.str();
}

// ---- Pack -------------------------------------------------------------------

TEST(PackEpilogue, PackMatchesOracleOverGeometry) {
  // Pad 0-3 x stride 1-4 x kernel 1/3/5/11, groups alternating 1/2, three
  // input channels per group (odd inner length), 5 filters per group (not
  // a register-block multiple), window counts that are not multiples of 64,
  // and grids whose column groups and chunks leave tails.
  const GridOptions grids[] = {{.rows = 4, .cols = 16, .lanes = 16, .jobs = 1},
                               {.rows = 3, .cols = 5, .lanes = 7, .jobs = 2},
                               {.rows = 8, .cols = 64, .lanes = 32, .jobs = 1}};
  int n = 0;
  for (const int kernel : {1, 3, 5, 11}) {
    for (int stride = 1; stride <= 4; ++stride) {
      for (int pad = 0; pad <= 3; ++pad, ++n) {
        const int groups = 1 + n % 2;
        PackCase pc{nn::make_conv("c", nn::Shape3{3 * groups, 13, 12},
                                  5 * groups, kernel, stride, pad, groups),
                    {.act_precision = 1 + n % 16,
                     .weight_precision = 2 + (n * 7) % 15,
                     .dynamic = n % 3 != 0},
                    grids[n % 3],
                    1 + n % 3};
        SCOPED_TRACE(describe(pc.layer, pc.spec, pc.batch));
        check_pack(pc, static_cast<std::uint64_t>(n));
      }
    }
  }
}

TEST(PackEpilogue, PackMatchesOracleAtEveryActivationPrecision) {
  // Pa 1-16 at two weight precisions: Pa 16 (and Pa 15 at Pw 16) split the
  // activation into a low byte and a high part. Batch 3 of 7x7 windows, so
  // 64-window slabs span request boundaries.
  for (int pa = 1; pa <= 16; ++pa) {
    for (const int pw : {11, 16}) {
      PackCase pc{nn::make_conv("c", nn::Shape3{5, 9, 9}, 7, 3, 1, 0),
                  {.act_precision = pa,
                   .weight_precision = pw,
                   .dynamic = true},
                  {.rows = 16, .cols = 16, .lanes = 16, .jobs = 1},
                  3};
      SCOPED_TRACE(describe(pc.layer, pc.spec, pc.batch));
      check_pack(pc, static_cast<std::uint64_t>(100 + pa * 2 + pw));
    }
  }
}

// ---- Epilogue ---------------------------------------------------------------

void check_epilogue(const std::vector<Wide>& values, int out_bits, bool relu) {
  nn::WideTensor acc(nn::Shape{static_cast<std::int64_t>(values.size())});
  for (std::size_t i = 0; i < values.size(); ++i) {
    acc.set_flat(static_cast<std::int64_t>(i), values[i]);
  }
  const int shift = nn::choose_requant_shift(acc, out_bits);
  const Requantized q = requantize_accumulators(acc, out_bits, relu);
  EXPECT_EQ(q.shift, shift) << "out_bits " << out_bits << " relu " << relu;
  EXPECT_EQ(q.output, nn::requantize(acc, shift, out_bits, relu))
      << "out_bits " << out_bits << " relu " << relu;
}

TEST(PackEpilogue, EpilogueMatchesReferenceAtExtremes) {
  const Wide big = Wide{1} << 58;
  for (const int out_bits : {1, 2, 8, 15, 16}) {
    const Wide limit = (Wide{1} << (out_bits - 1)) - 1;
    const std::vector<std::vector<Wide>> cases = {
        {limit, -limit, 0, 1, -1},           // peak at the limit: shift 0
        {limit + 1, -3, 2},                  // peak one past it: shift 1
        {-(limit + 1), limit, 1},            // |min| > max
        {-(limit + 2), 0},
        {-(Wide{1} << 40), 5, -7},           // |min| far above max
        {big, -big, 1, -1, big - 1},         // +-2^58
        {-big, 3},
        {0, 0, 0, 0},                        // all zero
        {},                                  // empty
    };
    for (const bool relu : {false, true}) {
      for (const auto& c : cases) check_epilogue(c, out_bits, relu);
    }
  }
}

TEST(PackEpilogue, EpilogueMatchesReferenceOnRandomAccumulators) {
  const CounterRng rng(0xE9, 0);
  std::uint64_t draw = 0;
  for (int t = 0; t < 60; ++t) {
    const int out_bits = 1 + t % 16;
    const int magnitude = 1 + (t * 5) % 58;  // |acc| < 2^magnitude
    std::vector<Wide> v(257);
    for (Wide& x : v) {
      const Wide span = Wide{1} << magnitude;
      x = static_cast<Wide>(rng.below(draw++, static_cast<std::uint64_t>(span))) -
          span / 2;
    }
    check_epilogue(v, out_bits, t % 2 == 0);
  }
}

// ---- Pool -------------------------------------------------------------------

TEST(PackEpilogue, PoolMatchesReference) {
  // Max and average over padding, clipped ceil-mode edge windows and
  // strides larger than the kernel (ceil windows that start past the input
  // are empty: INT16_MIN for max, 0 for average), on signed and on
  // all-negative inputs.
  nn::Tensor mixed = random_acts(nn::Shape{3, 7, 9}, /*is_signed=*/true, 77);
  nn::Tensor negative(mixed.shape());
  for (std::int64_t i = 0; i < mixed.elements(); ++i) {
    negative.set_flat(i, static_cast<Value>(-1 - (mixed.flat(i) & 0x3FFF)));
  }
  int checked = 0;
  for (const nn::PoolKind kind : {nn::PoolKind::kMax, nn::PoolKind::kAvg}) {
    for (const int kernel : {1, 2, 3, 5}) {
      for (const int stride : {1, 2, 3, 4}) {
        for (const int pad : {0, 1, 2}) {
          for (const bool ceil_mode : {false, true}) {
            const nn::Layer layer = nn::make_pool(
                "p", nn::Shape3{3, 7, 9}, kind, kernel, stride, pad, ceil_mode);
            ASSERT_TRUE(nn::geometry_consistent(layer));
            for (const nn::Tensor* in : {&mixed, &negative}) {
              EXPECT_EQ(pool_activations(*in, layer), nn::pool_forward(*in, layer))
                  << (kind == nn::PoolKind::kMax ? "max" : "avg") << " k"
                  << kernel << " s" << stride << " p" << pad
                  << (ceil_mode ? " ceil" : " floor");
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 4 * 4 * 3 * 2 * 2);
}

}  // namespace
}  // namespace loom::sim
