// Kernel differential property harness: the gemm kernel is held to
// byte-identity against the scalar arch::Sip oracle (SipGridOracle) and the
// nn::reference bit-parallel golden model over randomized geometry
// (pad/stride/groups/lane-tail/cols-tail) x Pa,Pw in {1..16} x batch 1-9.
//
// Stats are part of the contract: gemm must report the oracle's ConvStats
// whenever the batch is a single request (for larger batches the oracle's
// N-solo chunk structure legitimately differs from gemm's
// concatenated-window accounting).
//
// Failures print the iteration seed: rerun with
//   LOOM_BACKEND_PROP_SEED=<seed> ./test_backend_differential
// to replay just that case (iteration count drops to 1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/reference.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"

namespace loom::sim {
namespace {

struct Case {
  nn::Layer layer;
  std::vector<nn::Tensor> inputs;  // one per request
  nn::Tensor weights;
};

/// Uniform signed/unsigned values that fit the given streamed precision
/// exactly, with a `zero_run` chance of zeroing stretches (exercises
/// zero-precision detection groups and empty bit-planes).
nn::Tensor random_tensor(const nn::Shape& shape, int precision, bool is_signed,
                         SequentialRng& base, std::uint64_t stream,
                         double zero_run_p) {
  nn::Tensor t(shape);
  CounterRng rng(base.next_bits(), stream);
  bool zeroing = false;
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const std::uint64_t u = rng.bits(static_cast<std::uint64_t>(i));
    if ((u & 0xffu) < static_cast<std::uint64_t>(zero_run_p * 256.0)) {
      zeroing = !zeroing;
    }
    if (zeroing) {
      t.set_flat(i, 0);
      continue;
    }
    if (is_signed) {
      const auto span = std::int64_t{1} << precision;  // [-2^(p-1), 2^(p-1))
      t.set_flat(i, static_cast<Value>(static_cast<std::int64_t>(u % span) -
                                       (span >> 1)));
    } else {
      // Conv activations are unsigned bit patterns, but Tensor stores int16:
      // keep bit 15 clear so the signed reference model and the hardware's
      // unsigned streams agree (post-ReLU activations are non-negative, so
      // a 16-bit profile still never uses the top bit for magnitude).
      const int bits = std::min(precision, 15);
      t.set_flat(i, static_cast<Value>(u & ((1u << bits) - 1)));
    }
  }
  return t;
}

/// `min_cig` and `cig_span` set the input channels per group.
Case random_conv_case(std::uint64_t seed, std::int64_t min_cig = 1,
                      std::uint64_t cig_span = 4) {
  SequentialRng rng(seed, 1);
  const int groups = 1 + static_cast<int>(rng.next_below(3));
  const auto cig = min_cig + static_cast<std::int64_t>(rng.next_below(cig_span));
  const auto cog = 1 + static_cast<std::int64_t>(rng.next_below(5));
  const int in_h = 3 + static_cast<int>(rng.next_below(10));
  const int in_w = 3 + static_cast<int>(rng.next_below(10));
  const int kernel = 1 + static_cast<int>(rng.next_below(
                             std::min(4, std::min(in_h, in_w))));
  const int stride = 1 + static_cast<int>(rng.next_below(3));
  const int pad = static_cast<int>(rng.next_below(3));
  const int pa = 1 + static_cast<int>(rng.next_below(16));
  const int pw = 1 + static_cast<int>(rng.next_below(16));
  const int batch = 1 + static_cast<int>(rng.next_below(9));

  Case c{nn::make_conv("diff", nn::Shape3{cig * groups, in_h, in_w},
                       static_cast<int>(cog * groups), kernel, stride, pad,
                       groups),
         {}, nn::Tensor{}};
  c.layer.act_precision = pa;
  c.layer.weight_precision = pw;
  for (int r = 0; r < batch; ++r) {
    nn::Tensor t = random_tensor(nn::Shape{c.layer.in.c, c.layer.in.h,
                                           c.layer.in.w},
                                 pa, /*is_signed=*/false, rng, 100 + r, 0.1);
    if (rng.next_below(8) == 0) t = nn::Tensor(t.shape());  // all-zero request
    c.inputs.push_back(std::move(t));
  }
  c.weights = random_tensor(nn::Shape{c.layer.weight_count()}, pw,
                            /*is_signed=*/true, rng, 999, 0.05);
  return c;
}

Case random_fc_case(std::uint64_t seed) {
  SequentialRng rng(seed, 2);
  const auto ci = 1 + static_cast<std::int64_t>(rng.next_below(96));
  const int co = 1 + static_cast<int>(rng.next_below(80));
  const int pw = 1 + static_cast<int>(rng.next_below(16));
  const int batch = 1 + static_cast<int>(rng.next_below(9));

  Case c{nn::make_fc("diff_fc", nn::Shape3{ci, 1, 1}, co), {}, nn::Tensor{}};
  c.layer.weight_precision = pw;
  for (int r = 0; r < batch; ++r) {
    // FC activations stream all 16 signed bits.
    c.inputs.push_back(random_tensor(nn::Shape{ci}, kBasePrecision,
                                     /*is_signed=*/true, rng, 200 + r, 0.1));
  }
  c.weights = random_tensor(nn::Shape{c.layer.weight_count()}, pw,
                            /*is_signed=*/true, rng, 998, 0.05);
  return c;
}

/// Random grid, covering lane tails (lanes ∤ inner) and cols tails
/// (cols ∤ windows) alongside the parallel fan-out.
GridOptions random_ctx(std::uint64_t seed) {
  SequentialRng rng(seed, 3);
  GridOptions ctx;
  ctx.rows = 1 + static_cast<int>(rng.next_below(12));
  ctx.cols = 1 + static_cast<int>(rng.next_below(20));
  ctx.lanes = 1 + static_cast<int>(rng.next_below(16));
  ctx.jobs = 1 + static_cast<int>(rng.next_below(3));
  return ctx;
}

bool random_dynamic(std::uint64_t seed) {
  SequentialRng rng(seed, 4);
  return rng.next_below(2) == 0;
}

/// Iteration seeds: LOOM_BACKEND_PROP_SEED replays one failing case.
std::vector<std::uint64_t> iteration_seeds(std::uint64_t base, int count) {
  if (const char* env = std::getenv("LOOM_BACKEND_PROP_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

std::vector<nn::WideTensor> make_wides(const nn::Shape& shape, std::size_t n) {
  std::vector<nn::WideTensor> w;
  w.reserve(n);
  for (std::size_t r = 0; r < n; ++r) w.emplace_back(shape);
  return w;
}

void expect_stats_eq(const ConvStats& a,
                     const ConvStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.chunks, b.chunks);
  // streamed_pa is a sum of integers < 2^53, so the double is exact and
  // order-independent: bitwise equality is the contract, not a tolerance.
  EXPECT_EQ(a.streamed_pa, b.streamed_pa);
  EXPECT_EQ(a.act_bits_streamed, b.act_bits_streamed);
  EXPECT_EQ(a.weight_bits_streamed, b.weight_bits_streamed);
  EXPECT_EQ(a.detect_invocations, b.detect_invocations);
  EXPECT_EQ(a.detect_values, b.detect_values);
}


/// Request pointers into `inputs` and fresh accumulators for each.
struct Batch {
  std::vector<nn::WideTensor> wides;
  std::vector<const nn::Tensor*> in_ptrs;
  std::vector<nn::WideTensor*> wide_ptrs;

  Batch(const std::vector<nn::Tensor>& inputs, const nn::Shape& wide_shape)
      : wides(make_wides(wide_shape, inputs.size())) {
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      in_ptrs.push_back(&inputs[r]);
      wide_ptrs.push_back(&wides[r]);
    }
  }
};

// ---- Conv: gemm vs scalar oracle vs reference ------------------------------

TEST(BackendDifferential, ConvGemmMatchesScalarOracle) {
  for (const std::uint64_t seed : iteration_seeds(0xD1FF, 30)) {
    SCOPED_TRACE("LOOM_BACKEND_PROP_SEED=" + std::to_string(seed));
    const Case c = random_conv_case(seed);
    const GridOptions ctx = random_ctx(seed);
    ASSERT_TRUE(supports(ctx));  // gemm packs every random grid
    const SliceSpec spec{
        .act_precision = c.layer.act_precision,
        .weight_precision = c.layer.weight_precision,
        .dynamic = random_dynamic(seed)};
    const std::size_t batch = c.inputs.size();
    const nn::Shape wide_shape{c.layer.out.c, c.layer.out.h, c.layer.out.w};

    // Scalar oracle, one request at a time: the ground truth gemm (and the
    // batching semantics itself) is pinned against.
    SipGridOracle scalar(ctx);
    std::vector<nn::WideTensor> oracle = make_wides(wide_shape, batch);
    std::vector<ConvStats> oracle_stats;
    for (std::size_t r = 0; r < batch; ++r) {
      const nn::Tensor* in = &c.inputs[r];
      nn::WideTensor* out = &oracle[r];
      oracle_stats.push_back(scalar.run_conv_batch(
          c.layer, std::span<const nn::Tensor* const>(&in, 1), c.weights, spec,
          std::span<nn::WideTensor* const>(&out, 1)));
      EXPECT_EQ(oracle[r], nn::conv_forward(c.inputs[r], c.weights, c.layer))
          << "oracle vs reference, request " << r;
    }

    {
      // The oracle's own batch is N solo runs by definition.
      SCOPED_TRACE("backend scalar");
      Batch b(c.inputs, wide_shape);
      const ConvStats st =
          scalar.run_conv_batch(c.layer, b.in_ptrs, c.weights, spec, b.wide_ptrs);
      for (std::size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(b.wides[r], oracle[r]) << "request " << r;
      }
      ConvStats sum;
      for (const auto& s : oracle_stats) sum += s;
      expect_stats_eq(st, sum);
    }

    SCOPED_TRACE("backend gemm");
    GemmEngine gemm(ctx);
    Batch b(c.inputs, wide_shape);
    const ConvStats st = gemm.run_conv_batch(
        c.layer, b.in_ptrs,
        prepare_conv(c.layer, c.weights, spec.weight_precision), spec,
        b.wide_ptrs);
    for (std::size_t r = 0; r < batch; ++r) {
      EXPECT_EQ(b.wides[r], oracle[r]) << "request " << r;
    }
    // Same chunk structure as the oracle whenever the batch is one request.
    if (batch == 1) expect_stats_eq(st, oracle_stats[0]);
  }
}

TEST(BackendDifferential, DeepConvGemmMatchesReference) {
  // Inner lengths of at least 130, three or more 64-deep K-steps, so the
  // AMX tier runs these on byte planes (the cases above are shallower and
  // run its int16 kernel): every Pa and Pw, groups, padding, stride, lane
  // and column tails, batches, against the reference (the bit-serial
  // oracle is too slow at this depth).
  for (const std::uint64_t seed : iteration_seeds(0xDEE9, 20)) {
    SCOPED_TRACE("LOOM_BACKEND_PROP_SEED=" + std::to_string(seed));
    const Case c = random_conv_case(seed, 130, 40);
    ASSERT_GE(c.layer.inner_length(), 130);
    const SliceSpec spec{
        .act_precision = c.layer.act_precision,
        .weight_precision = c.layer.weight_precision,
        .dynamic = random_dynamic(seed)};
    const nn::Shape wide_shape{c.layer.out.c, c.layer.out.h, c.layer.out.w};
    GemmEngine gemm(random_ctx(seed));
    Batch b(c.inputs, wide_shape);
    (void)gemm.run_conv_batch(
        c.layer, b.in_ptrs,
        prepare_conv(c.layer, c.weights, spec.weight_precision), spec,
        b.wide_ptrs);
    for (std::size_t r = 0; r < c.inputs.size(); ++r) {
      EXPECT_EQ(b.wides[r], nn::conv_forward(c.inputs[r], c.weights, c.layer))
          << "request " << r;
    }
  }
}

// ---- FC: gemm vs scalar oracle vs reference --------------------------------

TEST(BackendDifferential, FcGemmMatchesScalarOracle) {
  for (const std::uint64_t seed : iteration_seeds(0xFCD1FF, 30)) {
    SCOPED_TRACE("LOOM_BACKEND_PROP_SEED=" + std::to_string(seed));
    const Case c = random_fc_case(seed);
    const GridOptions ctx = random_ctx(seed);
    ASSERT_TRUE(supports(ctx));
    const std::size_t batch = c.inputs.size();
    const nn::Shape wide_shape{c.layer.out.c, 1, 1};
    const int pw = c.layer.weight_precision;

    SipGridOracle scalar(ctx);
    std::vector<nn::WideTensor> oracle = make_wides(wide_shape, batch);
    for (std::size_t r = 0; r < batch; ++r) {
      const nn::Tensor* in = &c.inputs[r];
      nn::WideTensor* out = &oracle[r];
      scalar.run_fc_batch(c.layer, std::span<const nn::Tensor* const>(&in, 1),
                          c.weights, pw,
                          std::span<nn::WideTensor* const>(&out, 1));
      EXPECT_EQ(oracle[r], nn::fc_forward(c.inputs[r], c.weights, c.layer))
          << "oracle vs reference, request " << r;
    }

    {
      SCOPED_TRACE("backend scalar");
      Batch b(c.inputs, wide_shape);
      scalar.run_fc_batch(c.layer, b.in_ptrs, c.weights, pw, b.wide_ptrs);
      for (std::size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(b.wides[r], oracle[r]) << "batched request " << r;
      }
    }

    SCOPED_TRACE("backend gemm");
    GemmEngine gemm(ctx);
    // Batched (covers the request-packing paths)...
    Batch b(c.inputs, wide_shape);
    gemm.run_fc_batch(c.layer, b.in_ptrs, c.weights, pw, b.wide_ptrs);
    for (std::size_t r = 0; r < batch; ++r) {
      EXPECT_EQ(b.wides[r], oracle[r]) << "batched request " << r;
    }
    // ...and the first request alone.
    nn::WideTensor solo(wide_shape);
    nn::WideTensor* solo_ptr = &solo;
    gemm.run_fc_batch(c.layer, std::span(b.in_ptrs.data(), 1), c.weights, pw,
                      std::span(&solo_ptr, 1));
    EXPECT_EQ(solo, oracle[0]);
  }
}

// ---- Adversarial widths ------------------------------------------------------
// Every accumulator-narrowing decision at its worst case: operands at their
// largest magnitude with every product of one sign, so any int32 lane that
// is not widened in time — or any operand squeezed into int16 that does not
// fit — changes the result. Gemm and the oracle each run the case as a
// batch of two identical requests and solo.

/// A tensor of one repeated raw 16-bit pattern.
nn::Tensor filled(const nn::Shape& shape, std::uint16_t raw) {
  return nn::Tensor(shape, static_cast<Value>(raw));
}

/// A kernel's batched entry point on one layer.
using RunBatch = std::function<void(std::span<const nn::Tensor* const>,
                                    std::span<nn::WideTensor* const>)>;

/// `run` must reproduce `want` for a batch of two `input`s and for `input`
/// alone.
void expect_batch_and_solo(const std::string& kernel, const nn::Tensor& input,
                           const nn::WideTensor& want, const RunBatch& run) {
  SCOPED_TRACE("backend " + kernel);
  std::vector<nn::WideTensor> wides = make_wides(want.shape(), 2);
  const nn::Tensor* in_ptrs[] = {&input, &input};
  nn::WideTensor* wide_ptrs[] = {&wides[0], &wides[1]};
  run(in_ptrs, wide_ptrs);
  EXPECT_EQ(wides[0], want);
  EXPECT_EQ(wides[1], want);
  nn::WideTensor solo(want.shape());
  nn::WideTensor* solo_ptr = &solo;
  run(std::span(in_ptrs, 1), std::span(&solo_ptr, 1));
  EXPECT_EQ(solo, want);
}

/// Gemm and the SIP grid oracle must reproduce `want` exactly.
void expect_conv_everywhere(const nn::Layer& layer, const nn::Tensor& input,
                            const nn::Tensor& weights, const SliceSpec& spec,
                            const nn::WideTensor& want) {
  const GridOptions ctx{.jobs = 1};
  GemmEngine gemm(ctx);
  const PreparedConv prepared =
      prepare_conv(layer, weights, spec.weight_precision);
  expect_batch_and_solo("gemm", input, want, [&](auto in, auto out) {
    (void)gemm.run_conv_batch(layer, in, prepared, spec, out);
  });
  SipGridOracle scalar(ctx);
  expect_batch_and_solo("scalar", input, want, [&](auto in, auto out) {
    (void)scalar.run_conv_batch(layer, in, weights, spec, out);
  });
}

void expect_fc_everywhere(const nn::Layer& layer, const nn::Tensor& input,
                          const nn::Tensor& weights, int pw,
                          const nn::WideTensor& want) {
  const GridOptions ctx{.jobs = 1};
  GemmEngine gemm(ctx);
  expect_batch_and_solo("gemm", input, want, [&](auto in, auto out) {
    gemm.run_fc_batch(layer, in, weights, pw, out);
  });
  SipGridOracle scalar(ctx);
  expect_batch_and_solo("scalar", input, want, [&](auto in, auto out) {
    scalar.run_fc_batch(layer, in, weights, pw, out);
  });
}

TEST(BackendDifferential, SignedFcAtFullWidthMinValues) {
  // Pa = Pw = 16, every input and weight -32768: each product is +2^30, so
  // one multiply-add pair already reaches 2^31 and wraps int32.
  const nn::Layer layer = nn::make_fc("fc_min", nn::Shape3{300, 1, 1}, 5);
  const nn::Tensor input = filled(nn::Shape{300}, 0x8000);
  const nn::Tensor weights = filled(nn::Shape{layer.weight_count()}, 0x8000);
  const nn::WideTensor want = nn::fc_forward(input, weights, layer);
  ASSERT_EQ(want.flat(0), Wide{300} << 30);
  expect_fc_everywhere(layer, input, weights, kBasePrecision, want);
}

TEST(BackendDifferential, FcMaxMagnitudeOverLongInner) {
  // Inputs -32768 and weights at their most negative Pw-bit value over an
  // inner length of 2^16 — many int32 K-blocks on every tier. Pw 10 and 11
  // run int16 operands (Pw 11 at the shortest K-block, 31 steps); Pw 12
  // and 16 split the activation into bytes.
  constexpr std::int64_t kInner = std::int64_t{1} << 16;
  const nn::Layer layer = nn::make_fc("fc_long", nn::Shape3{kInner, 1, 1}, 3);
  const nn::Tensor input = filled(nn::Shape{kInner}, 0x8000);
  for (const int pw : {10, 11, 12, 16}) {
    SCOPED_TRACE("pw " + std::to_string(pw));
    const auto wmin = static_cast<std::uint16_t>(-(1 << (pw - 1)));
    const nn::Tensor weights = filled(nn::Shape{layer.weight_count()}, wmin);
    const nn::WideTensor want = nn::fc_forward(input, weights, layer);
    ASSERT_EQ(want.flat(0), kInner << (15 + pw - 1));
    expect_fc_everywhere(layer, input, weights, pw, want);
  }
}

TEST(BackendDifferential, UnsignedPa16ConvAllOnes) {
  // Unsigned 16-bit activations of 65535 do not fit int16, whatever the
  // weight width (Pw 2 leaves the K-block bound wide open). The signed
  // reference model reads that pattern as -1, so the expectation is the
  // reference on an all-ones input scaled by 65535 (the conv is linear).
  nn::Layer layer = nn::make_conv("pa16", nn::Shape3{8, 6, 6}, 4, 3, 1, 1);
  layer.act_precision = kBasePrecision;
  const nn::Tensor input = filled(nn::Shape{8, 6, 6}, 0xFFFF);
  for (const int pw : {2, 16}) {
    layer.weight_precision = pw;
    const auto wmin = static_cast<std::uint16_t>(-(1 << (pw - 1)));
    const nn::Tensor weights = filled(nn::Shape{layer.weight_count()}, wmin);
    nn::WideTensor want =
        nn::conv_forward(filled(nn::Shape{8, 6, 6}, 1), weights, layer);
    for (Wide& v : want.data()) v *= 65535;
    for (const bool dynamic : {false, true}) {
      SCOPED_TRACE("pw " + std::to_string(pw) + (dynamic ? " dynamic" : " static"));
      const SliceSpec spec{.act_precision = kBasePrecision,
                           .weight_precision = pw,
                           .dynamic = dynamic};
      expect_conv_everywhere(layer, input, weights, spec, want);
    }
  }
}

TEST(BackendDifferential, ConvStraddlesPlaneProductKBlockBound) {
  // A 1x1-spatial conv whose inner length straddles the byte-plane
  // kernel's K-block bound, 1,028 K-steps of 64 (65,792 products), at the
  // operand extremes: activations 0xFFFF at Pa 16 (both byte planes 255)
  // against weights all at the most negative or the most positive Pw-bit
  // value, for Pw at every plane-count edge (1 and 8: one plane; 9 and 15:
  // two, Pw 15's top plane reaching -128; 16: three). All products share a
  // sign, so a C lane flushed one K-step late wraps int32. Activations
  // 0x00FF take the one-plane dynamic path in every slab. The process's own
  // tier runs (the byte-plane kernel on an AMX host; the tier reruns cover
  // the int16 kernel). The signed reference reads 0xFFFF as -1, so the
  // expectation is the reference on an all-ones input scaled by the
  // activation (the conv is linear).
  constexpr std::int64_t kBound = 1028 * 64;
  const GridOptions ctx{.jobs = 1};
  GemmEngine gemm(ctx);
  for (const std::int64_t inner : {kBound - 64, kBound, kBound + 64}) {
    nn::Layer layer =
        nn::make_conv("kblock", nn::Shape3{inner, 1, 1}, 17, 1, 1, 0);
    layer.act_precision = kBasePrecision;
    const nn::Shape in_shape{inner, 1, 1};
    const nn::Tensor ones = filled(in_shape, 1);
    for (const int pw : {1, 8, 9, 15, 16}) {
      layer.weight_precision = pw;
      const std::int64_t wmin = -(std::int64_t{1} << (pw - 1));
      for (const std::int64_t wv : {wmin, -wmin - 1}) {
        const nn::Tensor weights = filled(nn::Shape{layer.weight_count()},
                                          static_cast<std::uint16_t>(wv));
        const nn::WideTensor unit = nn::conv_forward(ones, weights, layer);
        const PreparedConv prepared = prepare_conv(layer, weights, pw);
        for (const std::uint16_t act : {0xFFFFu, 0x00FFu}) {
          SCOPED_TRACE("inner " + std::to_string(inner) + " pw " +
                       std::to_string(pw) + " w " + std::to_string(wv) +
                       " act " + std::to_string(act));
          nn::WideTensor want = unit;
          for (Wide& v : want.data()) v *= act;
          ASSERT_EQ(want.flat(0), inner * act * wv);
          const SliceSpec spec{.act_precision = kBasePrecision,
                               .weight_precision = pw,
                               .dynamic = true};
          expect_batch_and_solo("gemm", filled(in_shape, act), want,
                                [&](auto in, auto out) {
                                  (void)gemm.run_conv_batch(layer, in, prepared,
                                                            spec, out);
                                });
        }
      }
    }
  }
}

// ---- Resolution precedence ------------------------------------------------

/// Sets an environment variable (nullptr unsets it) for one scope, then
/// restores the value it had.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    set(value);
  }
  ~ScopedEnv() { set(old_ ? old_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value != nullptr) {
      setenv(name_, value, 1);
    } else {
      unsetenv(name_);
    }
  }
  const char* name_;
  std::optional<std::string> old_;
};

TEST(BackendResolution, PrecedenceAndFallbacks) {
  const ScopedEnv no_force("LOOM_FUNCTIONAL_SCALAR", nullptr);
  const GridOptions ok;                    // 16x16x16: everything packs
  GridOptions wide = ok;
  wide.cols = 80;                             // gemm cannot pack
  GridOptions deep = ok;
  deep.lanes = 40;                            // same, via the lane bound

  // Explicit names resolve to themselves on a packable grid...
  EXPECT_EQ(resolve_backend_name("gemm", ok), "gemm");
  EXPECT_EQ(resolve_backend_name("scalar", ok), "scalar");
  EXPECT_EQ(resolve_backend_name("scalar", wide), "scalar");
  // ...and gemm falls back to the scalar oracle on an unpackable one (the
  // historical cols>64 behavior).
  EXPECT_EQ(resolve_backend_name("gemm", wide), "scalar");
  // "" means "auto"; "auto" with no viable candidate is the scalar oracle.
  EXPECT_EQ(resolve_backend_name("", ok), "auto");
  EXPECT_EQ(resolve_backend_name("auto", wide), "scalar");
  EXPECT_EQ(resolve_backend_name("auto", deep), "scalar");
  // Unknown names are a configuration error, not a silent fallback — the
  // retired table-lookup and bit-slice kernels included.
  EXPECT_THROW((void)resolve_backend_name("no-such-kernel", ok), ConfigError);
  EXPECT_THROW((void)resolve_backend_name("lut", ok), ConfigError);
  EXPECT_THROW((void)resolve_backend_name("lut-outer", ok), ConfigError);
  EXPECT_THROW((void)resolve_backend_name("bitslice", ok), ConfigError);

  // Engine-level: the resolved name is observable, and unknown names throw
  // at construction.
  FunctionalLoomEngine scalar_eng(
      FunctionalOptions{.jobs = 1, .backend = "scalar"});
  EXPECT_EQ(scalar_eng.backend_name(), "scalar");
  FunctionalLoomEngine gemm_eng(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  EXPECT_EQ(gemm_eng.backend_name(), "gemm");
  FunctionalLoomEngine auto_eng(FunctionalOptions{.jobs = 1});
  EXPECT_EQ(auto_eng.backend_name(), "auto");
  EXPECT_THROW(FunctionalLoomEngine(FunctionalOptions{.backend = "bogus"}),
               ConfigError);
}

TEST(BackendResolution, ScalarEnvAcceptsOnlyZeroOrOne) {
  {
    // "1" beats everything, explicit names included.
    const ScopedEnv force("LOOM_FUNCTIONAL_SCALAR", "1");
    EXPECT_EQ(resolve_backend_name("gemm", GridOptions{}), "scalar");
    FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1, .backend = "gemm"});
    EXPECT_EQ(eng.backend_name(), "scalar");
  }
  for (const char* off : {"", "0"}) {
    const ScopedEnv unforced("LOOM_FUNCTIONAL_SCALAR", off);
    FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1});
    EXPECT_EQ(eng.backend_name(), "auto") << '"' << off << '"';
  }
  // Any other value is an error naming the variable, not a silent switch
  // to the oracle.
  for (const char* junk : {"false", "off", "yes", "true", "2"}) {
    SCOPED_TRACE(junk);
    const ScopedEnv bad("LOOM_FUNCTIONAL_SCALAR", junk);
    try {
      FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1});
      ADD_FAILURE() << "built an engine with backend " << eng.backend_name();
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("LOOM_FUNCTIONAL_SCALAR"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace loom::sim
