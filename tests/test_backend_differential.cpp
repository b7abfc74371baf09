// Cross-backend differential property harness: every backend in the
// registry — present and future — is held to byte-identity against the
// scalar arch::Sip oracle and the nn::reference bit-parallel golden model
// over randomized geometry (pad/stride/groups/lane-tail/cols-tail) ×
// Pa,Pw ∈ {1..16} × batch 1–9. A new backend gets this coverage by
// registering, not by writing a new test file: the sweeps below enumerate
// BackendRegistry and skip nothing that claims to support the grid.
//
// Stats are part of the contract: every word-parallel backend must report
// the same ConvStats as the others for the same batched run (the scalar
// oracle joins that comparison at batch == 1; for larger
// batches its N-solo chunk structure legitimately differs from the
// concatenated-window accounting).
//
// Failures print the iteration seed: rerun with
//   LOOM_BACKEND_PROP_SEED=<seed> ./test_backend_differential
// to replay just that case (iteration count drops to 1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mirror_backend.hpp"
#include "nn/reference.hpp"
#include "sim/backend.hpp"
#include "sim/dpnn_functional.hpp"
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

Case random_conv_case(std::uint64_t seed) {
  SequentialRng rng(seed, 1);
  const int groups = 1 + static_cast<int>(rng.next_below(3));
  const auto cig = 1 + static_cast<std::int64_t>(rng.next_below(4));
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

// ---- Conv: every registered backend vs scalar oracle vs reference ---------

TEST(BackendDifferential, ConvAllRegisteredBackendsByteIdentical) {
  auto& reg = BackendRegistry::instance();
  for (const std::uint64_t seed : iteration_seeds(0xD1FF, 30)) {
    SCOPED_TRACE("LOOM_BACKEND_PROP_SEED=" + std::to_string(seed));
    const Case c = random_conv_case(seed);
    const GridOptions ctx = random_ctx(seed);
    const SliceSpec spec{
        .act_precision = c.layer.act_precision,
        .weight_precision = c.layer.weight_precision,
        .act_signed = false,
        .dynamic = random_dynamic(seed)};
    const std::size_t batch = c.inputs.size();
    const nn::Shape wide_shape{c.layer.out.c, c.layer.out.h, c.layer.out.w};

    // Scalar oracle, one request at a time: the ground truth every backend
    // (and the batching semantics itself) is pinned against.
    const BackendInfo* scalar_info = reg.find("scalar");
    ASSERT_NE(scalar_info, nullptr);
    auto scalar = scalar_info->make(ctx);
    std::vector<nn::WideTensor> oracle = make_wides(wide_shape, batch);
    std::vector<ConvStats> oracle_stats;
    for (std::size_t r = 0; r < batch; ++r) {
      const nn::Tensor* in = &c.inputs[r];
      nn::WideTensor* out = &oracle[r];
      oracle_stats.push_back(scalar->run_conv_batch(
          c.layer, std::span<const nn::Tensor* const>(&in, 1), c.weights, spec,
          std::span<nn::WideTensor* const>(&out, 1)));
      EXPECT_EQ(oracle[r], nn::conv_forward(c.inputs[r], c.weights, c.layer))
          << "oracle vs reference, request " << r;
    }

    bool have_parallel_stats = false;
    ConvStats parallel_stats;
    for (const std::string& name : reg.names()) {
      SCOPED_TRACE("backend " + name);
      const BackendInfo* info = reg.find(name);
      ASSERT_NE(info, nullptr);
      if (!info->supports(ctx)) continue;
      auto backend = info->make(ctx);

      std::vector<nn::WideTensor> wides = make_wides(wide_shape, batch);
      std::vector<const nn::Tensor*> in_ptrs;
      std::vector<nn::WideTensor*> wide_ptrs;
      for (std::size_t r = 0; r < batch; ++r) {
        in_ptrs.push_back(&c.inputs[r]);
        wide_ptrs.push_back(&wides[r]);
      }
      const ConvStats st =
          backend->run_conv_batch(c.layer, in_ptrs, c.weights, spec, wide_ptrs);
      for (std::size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(wides[r], oracle[r]) << "request " << r;
      }
      if (name == "scalar") {
        // The scalar backend's own batch is N solo runs by definition.
        ConvStats sum;
        for (const auto& s : oracle_stats) sum += s;
        expect_stats_eq(st, sum);
        continue;
      }
      // Word-parallel backends share the concatenated-window accounting:
      // all must agree with each other, and with the scalar oracle whenever
      // the batch is a single request (same chunk structure).
      if (!have_parallel_stats) {
        parallel_stats = st;
        have_parallel_stats = true;
      } else {
        expect_stats_eq(st, parallel_stats);
      }
      if (batch == 1) expect_stats_eq(st, oracle_stats[0]);
    }
    EXPECT_TRUE(have_parallel_stats);  // gemm at minimum supports 1..20 cols
  }
}

// ---- FC: every registered backend vs scalar oracle vs reference -----------

TEST(BackendDifferential, FcAllRegisteredBackendsByteIdentical) {
  auto& reg = BackendRegistry::instance();
  for (const std::uint64_t seed : iteration_seeds(0xFCD1FF, 30)) {
    SCOPED_TRACE("LOOM_BACKEND_PROP_SEED=" + std::to_string(seed));
    const Case c = random_fc_case(seed);
    const GridOptions ctx = random_ctx(seed);
    const std::size_t batch = c.inputs.size();
    const nn::Shape wide_shape{c.layer.out.c, 1, 1};

    const BackendInfo* scalar_info = reg.find("scalar");
    ASSERT_NE(scalar_info, nullptr);
    auto scalar = scalar_info->make(ctx);
    std::vector<nn::WideTensor> oracle = make_wides(wide_shape, batch);
    for (std::size_t r = 0; r < batch; ++r) {
      scalar->run_fc(c.layer, c.inputs[r], c.weights, c.layer.weight_precision,
                     oracle[r]);
      EXPECT_EQ(oracle[r], nn::fc_forward(c.inputs[r], c.weights, c.layer))
          << "oracle vs reference, request " << r;
    }

    for (const std::string& name : reg.names()) {
      SCOPED_TRACE("backend " + name);
      const BackendInfo* info = reg.find(name);
      ASSERT_NE(info, nullptr);
      if (!info->supports(ctx)) continue;
      auto backend = info->make(ctx);

      // Batched entry point (covers the request-packing paths)...
      std::vector<nn::WideTensor> wides = make_wides(wide_shape, batch);
      std::vector<const nn::Tensor*> in_ptrs;
      std::vector<nn::WideTensor*> wide_ptrs;
      for (std::size_t r = 0; r < batch; ++r) {
        in_ptrs.push_back(&c.inputs[r]);
        wide_ptrs.push_back(&wides[r]);
      }
      backend->run_fc_batch(c.layer, in_ptrs, c.weights,
                            c.layer.weight_precision, wide_ptrs);
      for (std::size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(wides[r], oracle[r]) << "batched request " << r;
      }
      // ...and the solo entry point on the first request.
      nn::WideTensor solo(wide_shape);
      backend->run_fc(c.layer, c.inputs[0], c.weights,
                      c.layer.weight_precision, solo);
      EXPECT_EQ(solo, oracle[0]);
    }
  }
}

// ---- Adversarial widths ------------------------------------------------------
// Every accumulator-narrowing decision at its worst case: operands at their
// largest magnitude with every product of one sign, so any int32 lane that
// is not widened in time — or any operand squeezed into int16 that does not
// fit — changes the result. Each registered backend runs the case as a
// batch of two identical requests and solo.

/// A tensor of one repeated raw 16-bit pattern.
nn::Tensor filled(const nn::Shape& shape, std::uint16_t raw) {
  return nn::Tensor(shape, static_cast<Value>(raw));
}

/// Every registered backend (bar `skip`) on `ctx`, batched and solo, must
/// reproduce `want` exactly.
void expect_conv_everywhere(const nn::Layer& layer, const nn::Tensor& input,
                            const nn::Tensor& weights,
                            const SliceSpec& spec,
                            const nn::WideTensor& want, const std::string& skip) {
  const GridOptions ctx{.jobs = 1};
  auto& reg = BackendRegistry::instance();
  for (const std::string& name : reg.names()) {
    if (name == skip || !reg.find(name)->supports(ctx)) continue;
    SCOPED_TRACE("backend " + name);
    auto backend = reg.find(name)->make(ctx);
    std::vector<nn::WideTensor> wides = make_wides(want.shape(), 2);
    const nn::Tensor* in_ptrs[] = {&input, &input};
    nn::WideTensor* wide_ptrs[] = {&wides[0], &wides[1]};
    (void)backend->run_conv_batch(layer, in_ptrs, weights, spec, wide_ptrs);
    EXPECT_EQ(wides[0], want);
    EXPECT_EQ(wides[1], want);
    nn::WideTensor solo(want.shape());
    nn::WideTensor* solo_ptr = &solo;
    (void)backend->run_conv_batch(layer, std::span(in_ptrs, 1), weights, spec,
                                  std::span(&solo_ptr, 1));
    EXPECT_EQ(solo, want);
  }
}

void expect_fc_everywhere(const nn::Layer& layer, const nn::Tensor& input,
                          const nn::Tensor& weights, int pw,
                          const nn::WideTensor& want) {
  const GridOptions ctx{.jobs = 1};
  auto& reg = BackendRegistry::instance();
  for (const std::string& name : reg.names()) {
    if (!reg.find(name)->supports(ctx)) continue;
    SCOPED_TRACE("backend " + name);
    auto backend = reg.find(name)->make(ctx);
    std::vector<nn::WideTensor> wides = make_wides(want.shape(), 2);
    const nn::Tensor* in_ptrs[] = {&input, &input};
    nn::WideTensor* wide_ptrs[] = {&wides[0], &wides[1]};
    backend->run_fc_batch(layer, in_ptrs, weights, pw, wide_ptrs);
    EXPECT_EQ(wides[0], want);
    EXPECT_EQ(wides[1], want);
    nn::WideTensor solo(want.shape());
    backend->run_fc(layer, input, weights, pw, solo);
    EXPECT_EQ(solo, want);
  }
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
                                           .act_signed = false,
                                           .dynamic = dynamic};
      expect_conv_everywhere(layer, input, weights, spec, want, /*skip=*/"");
    }
  }
}

TEST(BackendDifferential, DpnnSpecConvMinValues) {
  // The DPNN spec (signed 16 x 16) with every operand -32768. The registry's
  // scalar grid is the unsigned Loom conv; the DPNN oracle is the IP-unit
  // backend, checked here against the reference too.
  const nn::Layer layer = nn::make_conv("dpnn", nn::Shape3{8, 6, 6}, 4, 3, 1, 1);
  const nn::Tensor input = filled(nn::Shape{8, 6, 6}, 0x8000);
  const nn::Tensor weights = filled(nn::Shape{layer.weight_count()}, 0x8000);
  const nn::WideTensor want = nn::conv_forward(input, weights, layer);
  ASSERT_EQ(want.at3(0, 2, 2), Wide{72} << 30);

  nn::WideTensor oracle(want.shape());
  const nn::Tensor* in_ptr = &input;
  nn::WideTensor* out_ptr = &oracle;
  (void)make_ip_unit_backend(GridOptions{.rows = kDpnnFilters, .jobs = 1})
      ->run_conv_batch(layer, std::span(&in_ptr, 1), weights, kDpnnSpec,
                       std::span(&out_ptr, 1));
  EXPECT_EQ(oracle, want);
  expect_conv_everywhere(layer, input, weights, kDpnnSpec, want,
                         /*skip=*/"scalar");
}

// ---- Registration is the coverage mechanism -------------------------------

// A backend registered by a test (or a future PR) is picked up by the same
// machinery the sweeps above use: the registry lists it, the autotuner sees
// it as a candidate, and resolve_backend_name() accepts it by name.
TEST(BackendRegistryTest, RegisteredBackendJoinsSweepAndResolution) {
  auto& reg = BackendRegistry::instance();
  const auto before = reg.names().size();
  register_gemm_mirror();
  EXPECT_EQ(reg.names().size(), before + 1);
  ASSERT_NE(reg.find(kMirrorBackend), nullptr);

  const GridOptions ctx;  // default 16x16x16 grid
  const auto tunable = reg.tunable_names(ctx);
  EXPECT_NE(std::find(tunable.begin(), tunable.end(), kMirrorBackend),
            tunable.end());
  EXPECT_EQ(resolve_backend_name(kMirrorBackend, /*force_scalar=*/false, ctx),
            kMirrorBackend);

  // It runs a real case byte-identically (one spot check here — the sweep
  // tests above now exercise it on every iteration of this binary).
  const Case c = random_conv_case(0x3A3A);
  FunctionalLoomEngine eng(
      FunctionalOptions{.jobs = 1, .backend = kMirrorBackend});
  EXPECT_EQ(eng.backend_name(), kMirrorBackend);
  const FunctionalLayerRun run =
      eng.run_conv(c.layer, c.inputs[0], c.weights, kBasePrecision);
  EXPECT_EQ(run.backend, kMirrorBackend);
  EXPECT_EQ(run.wide, nn::conv_forward(c.inputs[0], c.weights, c.layer));
}

// ---- Resolution precedence ------------------------------------------------

TEST(BackendResolution, PrecedenceAndFallbacks) {
  const GridOptions ok;                    // 16x16x16: everything packs
  GridOptions wide = ok;
  wide.cols = 80;                             // nothing word-parallel packs
  GridOptions deep = ok;
  deep.lanes = 40;                            // same, via the lane bound

  // force_scalar beats everything, explicit names included.
  EXPECT_EQ(resolve_backend_name("gemm", true, ok), "scalar");
  // Explicit registered names resolve to themselves on a packable grid...
  EXPECT_EQ(resolve_backend_name("gemm", false, ok), "gemm");
  EXPECT_EQ(resolve_backend_name("scalar", false, ok), "scalar");
  // ...and fall back to the scalar oracle on an unpackable one (the
  // historical cols>64 behavior).
  EXPECT_EQ(resolve_backend_name("gemm", false, wide), "scalar");
  // "" means "auto"; "auto" with no viable candidate is the scalar oracle.
  EXPECT_EQ(resolve_backend_name("", false, ok), "auto");
  EXPECT_EQ(resolve_backend_name("auto", false, wide), "scalar");
  EXPECT_EQ(resolve_backend_name("auto", false, deep), "scalar");
  // Unknown names are a configuration error, not a silent fallback — the
  // retired table-lookup kernels included.
  EXPECT_THROW((void)resolve_backend_name("no-such-kernel", false, ok),
               ConfigError);
  EXPECT_THROW((void)resolve_backend_name("lut", false, ok), ConfigError);
  EXPECT_THROW((void)resolve_backend_name("lut-outer", false, ok), ConfigError);

  // Engine-level: the resolved name is observable, and unknown names throw
  // at construction.
  FunctionalLoomEngine gemm_eng(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  EXPECT_EQ(gemm_eng.backend_name(), "gemm");
  FunctionalLoomEngine auto_eng(FunctionalOptions{.jobs = 1});
  EXPECT_EQ(auto_eng.backend_name(), "auto");
  EXPECT_THROW(FunctionalLoomEngine(FunctionalOptions{.backend = "bogus"}),
               ConfigError);
}

}  // namespace
}  // namespace loom::sim
