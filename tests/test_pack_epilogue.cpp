// The non-GEMM half of a layer run, each part against its oracle:
//   * the gemm kernel's bounds-free im2col pack: accumulators against the
//     scalar arch::Sip oracle; statistics against the oracle's at batch 1
//     and, when slabs span requests, against ORs gathered independently
//     through nn::im2col_input_index;
//   * the engine's one-pass epilogue against nn::choose_requant_shift +
//     nn::requantize at adversarial accumulator extremes;
//   * the peak the gemm store reports per request against the scanned
//     max |acc|, and the shift the epilogue takes from it;
//   * the engine's pooling against nn::pool_forward.
#include <gtest/gtest.h>

#include <algorithm>
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
  std::vector<Wide> peaks(inputs.size());
  const ConvStats st = gemm.run_conv_batch(
      layer, in_ptrs, prepare_conv(layer, weights, pc.spec.weight_precision),
      pc.spec, wide_ptrs, peaks);
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

/// max |v| over `acc`, scanned.
Wide scanned_peak(const nn::WideTensor& acc) {
  Wide peak = 0;
  for (const Wide v : acc.data()) peak = std::max(peak, v < 0 ? -v : v);
  return peak;
}

void check_epilogue(const std::vector<Wide>& values, int out_bits, bool relu) {
  nn::WideTensor acc(nn::Shape{static_cast<std::int64_t>(values.size())});
  for (std::size_t i = 0; i < values.size(); ++i) {
    acc.set_flat(static_cast<std::int64_t>(i), values[i]);
  }
  const int shift = nn::choose_requant_shift(acc, out_bits);
  const Requantized q =
      requantize_accumulators(acc, scanned_peak(acc), out_bits, relu);
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

// ---- The store's peak ---------------------------------------------------------

/// Run `layer` on gemm at jobs 1 and 4, `inputs` as one batch and each
/// alone, and check every reported peak: it is the scanned max |acc| of its
/// own request, a request alone reports the same one, and the epilogue
/// takes nn::choose_requant_shift's shift and nn::requantize's output from
/// it. Returns the batch's peaks.
std::vector<Wide> check_store_peak(const nn::Layer& layer,
                                   const std::vector<nn::Tensor>& inputs,
                                   const nn::Tensor& weights, int out_bits) {
  const bool conv = layer.kind == nn::LayerKind::kConv;
  const nn::Shape out_shape{layer.out.c, conv ? layer.out.h : 1,
                            conv ? layer.out.w : 1};
  const SliceSpec spec{.act_precision = layer.act_precision,
                       .weight_precision = layer.weight_precision,
                       .dynamic = true};
  std::vector<Wide> batch_peaks;
  for (const int jobs : {1, 4}) {
    GemmEngine gemm(GridOptions{.jobs = jobs});
    const auto run = [&](std::span<const nn::Tensor* const> in,
                         std::vector<nn::WideTensor>& wides) {
      wides.assign(in.size(), nn::WideTensor(out_shape));
      std::vector<nn::WideTensor*> wide_ptrs;
      for (nn::WideTensor& w : wides) wide_ptrs.push_back(&w);
      std::vector<Wide> peaks(in.size(), -1);
      if (conv) {
        (void)gemm.run_conv_batch(
            layer, in, prepare_conv(layer, weights, spec.weight_precision),
            spec, wide_ptrs, peaks);
      } else {
        gemm.run_fc_batch(layer, in, weights, spec.weight_precision, wide_ptrs,
                          peaks);
      }
      return peaks;
    };
    std::vector<const nn::Tensor*> in_ptrs;
    for (const nn::Tensor& t : inputs) in_ptrs.push_back(&t);
    std::vector<nn::WideTensor> wides;
    batch_peaks = run(in_ptrs, wides);
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) + ", request " +
                   std::to_string(r));
      const nn::WideTensor& acc = wides[r];
      EXPECT_EQ(batch_peaks[r], scanned_peak(acc));
      const int shift = nn::choose_requant_shift(acc, out_bits);
      const Requantized q =
          requantize_accumulators(acc, batch_peaks[r], out_bits, true);
      EXPECT_EQ(q.shift, shift);
      EXPECT_EQ(q.output, nn::requantize(acc, shift, out_bits, true));
      std::vector<nn::WideTensor> solo;
      EXPECT_EQ(run(std::span(&in_ptrs[r], 1), solo)[0], batch_peaks[r]);
    }
  }
  return batch_peaks;
}

TEST(PackEpilogue, StorePeakOfALoneNegativeSum) {
  // One input pixel of 1000 and one filter of weight -3 on its channel:
  // the largest magnitude is that filter's one sum at that window, -2997,
  // while the largest positive sum is 1003. Conv at 4 input channels (the
  // int16 kernel) and 160 (byte planes on the AMX tier), and FC.
  for (const std::int64_t channels : {4, 160}) {
    SCOPED_TRACE("channels " + std::to_string(channels));
    nn::Layer layer = nn::make_conv("c", nn::Shape3{channels, 9, 9}, 8, 1, 1, 0);
    layer.act_precision = 10;
    layer.weight_precision = 3;
    nn::Tensor input(nn::Shape{channels, 9, 9}, Value{0});
    input.set_flat(4 * 9 + 4, 1000);
    input.set_flat(9 * 9 + 4 * 9 + 4, 3);
    nn::Tensor weights(nn::Shape{layer.weight_count()}, Value{1});
    weights.set_flat(5 * channels, -3);
    EXPECT_EQ(check_store_peak(layer, {input}, weights, 8),
              std::vector<Wide>{2997});
  }
  nn::Layer fc = nn::make_fc("f", nn::Shape3{40, 1, 1}, 19);
  fc.weight_precision = 12;
  nn::Tensor weights(nn::Shape{fc.weight_count()}, Value{1});
  for (std::int64_t k = 0; k < 40; ++k) weights.set_flat(17 * 40 + k, -1024);
  EXPECT_EQ(check_store_peak(fc, {nn::Tensor(nn::Shape{40}, Value{1})},
                             weights, 8),
            std::vector<Wide>{40 * 1024});
}

TEST(PackEpilogue, StorePeakOfAllZeroSums) {
  nn::Layer conv = nn::make_conv("c", nn::Shape3{6, 9, 9}, 7, 3, 1, 1);
  conv.act_precision = 9;
  conv.weight_precision = 5;
  const nn::Tensor conv_weights = random_weights(conv.weight_count(), 3);
  EXPECT_EQ(check_store_peak(conv, {nn::Tensor(nn::Shape{6, 9, 9})},
                             conv_weights, 8),
            std::vector<Wide>{0});
  nn::Layer fc = nn::make_fc("f", nn::Shape3{50, 1, 1}, 11);
  fc.weight_precision = 9;
  EXPECT_EQ(check_store_peak(fc, {nn::Tensor(nn::Shape{50})},
                             random_weights(fc.weight_count(), 4), 8),
            std::vector<Wide>{0});
}

TEST(PackEpilogue, StorePeakInTheLastPartialColumnGroup) {
  // 15x15 = 225 windows: four 64-window slabs, so at jobs 4 the last
  // stripe holds the last slab, whose last column group has one window.
  // Only that window's input pixel is large.
  for (const std::int64_t channels : {4, 160}) {
    SCOPED_TRACE("channels " + std::to_string(channels));
    nn::Layer layer =
        nn::make_conv("c", nn::Shape3{channels, 15, 15}, 9, 1, 1, 0);
    layer.act_precision = 12;
    layer.weight_precision = 6;
    nn::Tensor input(nn::Shape{channels, 15, 15}, Value{1});
    input.set_flat(15 * 15 - 1, 4000);
    const nn::Tensor weights(nn::Shape{layer.weight_count()}, Value{31});
    EXPECT_EQ(check_store_peak(layer, {input}, weights, 8),
              std::vector<Wide>{31 * (4000 + channels - 1)});
  }
}

TEST(PackEpilogue, StorePeaksOfRequestsSharingASlab) {
  // 7x7 = 49 windows: the first slab holds request 0 and the first 15
  // windows of request 1. Request 0's sums are small and request 1's large;
  // each request keeps its own peak, so neither shift moves (the solo runs
  // in check_store_peak).
  nn::Layer conv = nn::make_conv("c", nn::Shape3{3, 7, 7}, 5, 3, 1, 1);
  conv.act_precision = 12;
  conv.weight_precision = 8;
  const nn::Tensor conv_weights(nn::Shape{conv.weight_count()}, Value{-7});
  const std::vector<Wide> conv_peaks = check_store_peak(
      conv,
      {nn::Tensor(nn::Shape{3, 7, 7}, Value{1}),
       nn::Tensor(nn::Shape{3, 7, 7}, Value{3000})},
      conv_weights, 8);
  EXPECT_EQ(conv_peaks, (std::vector<Wide>{7 * 27, 7 * 27 * 3000}));

  nn::Layer fc = nn::make_fc("f", nn::Shape3{64, 1, 1}, 21);
  fc.weight_precision = 10;
  const nn::Tensor fc_weights(nn::Shape{fc.weight_count()}, Value{-300});
  const std::vector<Wide> fc_peaks = check_store_peak(
      fc,
      {nn::Tensor(nn::Shape{64}, Value{2}), nn::Tensor(nn::Shape{64}, Value{-20000}),
       nn::Tensor(nn::Shape{64}, Value{-1})},
      fc_weights, 8);
  EXPECT_EQ(fc_peaks, (std::vector<Wide>{64 * 300 * 2, 64 * 300 * 20000, 64 * 300}));
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
