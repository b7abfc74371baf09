// Randomized property tests for batched (multi-request) execution: random
// layer geometries, batch sizes 1-9 (crossing the FC request-packing
// threshold), Pa/Pw in 1..16, pad/stride/groups/lane-tail cases. Every
// iteration cross-checks three independent implementations —
//   * the batched word-parallel (gemm) kernel,
//   * the scalar arch::Sip oracle run one request at a time, and
//   * the nn::reference bit-parallel golden model —
// plus deterministic coverage for the cols>64 auto-fallback and the
// degenerate batches (batch=1, all-zero activation requests, zero-precision
// groups) on both functional backends.
//
// Failures print the iteration seed: rerun with
//   LOOM_BATCH_PROP_SEED=<seed> ./test_batch_properties
// to replay just that case (iteration count drops to 1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "nn/reference.hpp"
#include "sim/autotune_cache.hpp"
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

  Case c{nn::make_conv("prop", nn::Shape3{cig * groups, in_h, in_w},
                       static_cast<int>(cog * groups), kernel, stride, pad,
                       groups),
         {}, nn::Tensor{}};
  c.layer.act_precision = pa;
  c.layer.weight_precision = pw;
  for (int r = 0; r < batch; ++r) {
    nn::Tensor t = random_tensor(nn::Shape{c.layer.in.c, c.layer.in.h,
                                           c.layer.in.w},
                                 pa, /*is_signed=*/false, rng, 100 + r, 0.1);
    // Degenerate coverage: occasionally a whole request of zeros — every
    // detection group it dominates has zero precision.
    if (rng.next_below(8) == 0) t = nn::Tensor(t.shape());
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

  Case c{nn::make_fc("prop_fc", nn::Shape3{ci, 1, 1}, co), {}, nn::Tensor{}};
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

FunctionalOptions random_grid(std::uint64_t seed) {
  SequentialRng rng(seed, 3);
  FunctionalOptions opts;
  opts.rows = 1 + static_cast<int>(rng.next_below(12));
  opts.cols = 1 + static_cast<int>(rng.next_below(20));
  opts.lanes = 1 + static_cast<int>(rng.next_below(16));
  opts.dynamic_act_precision = rng.next_below(2) == 0;
  opts.jobs = 1 + static_cast<int>(rng.next_below(3));
  return opts;
}

/// Iteration seeds: LOOM_BATCH_PROP_SEED replays one failing case.
std::vector<std::uint64_t> iteration_seeds(std::uint64_t base, int count) {
  if (const char* env = std::getenv("LOOM_BATCH_PROP_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

// ---- Conv: batched word-parallel vs scalar oracle vs reference -----------

TEST(BatchProperties, ConvBatchedMatchesScalarOracleAndReference) {
  for (const std::uint64_t seed : iteration_seeds(0xC0111D, 40)) {
    SCOPED_TRACE("LOOM_BATCH_PROP_SEED=" + std::to_string(seed));
    const Case c = random_conv_case(seed);
    const FunctionalOptions opts = random_grid(seed);

    FunctionalLoomEngine sliced(opts);
    ASSERT_NE(sliced.backend_name(), "scalar");
    const FunctionalBatchLayerRun batched =
        sliced.run_conv_batch(c.layer, c.inputs, c.weights, kBasePrecision);

    FunctionalOptions scalar_opts = opts;
    scalar_opts.backend = "scalar";
    FunctionalLoomEngine scalar(scalar_opts);
    ASSERT_EQ(scalar.backend_name(), "scalar");

    for (std::size_t r = 0; r < c.inputs.size(); ++r) {
      SCOPED_TRACE("request " + std::to_string(r));
      // Solo scalar oracle: the batching semantics ground truth.
      const FunctionalLayerRun solo =
          scalar.run_conv(c.layer, c.inputs[r], c.weights, kBasePrecision);
      EXPECT_EQ(batched.wides[r], solo.wide);
      EXPECT_EQ(batched.outputs[r], solo.output);
      EXPECT_EQ(batched.requant_shifts[r], solo.requant_shift);
      // Bit-parallel golden reference (engine streams exactly pa/pw bits,
      // and the inputs are generated to fit them, so values agree exactly).
      EXPECT_EQ(batched.wides[r],
                nn::conv_forward(c.inputs[r], c.weights, c.layer));
    }
  }
}

// ---- FC: request packing both sides of the threshold ----------------------

TEST(BatchProperties, FcBatchedMatchesScalarOracleAndReference) {
  for (const std::uint64_t seed : iteration_seeds(0xFC5EED, 40)) {
    SCOPED_TRACE("LOOM_BATCH_PROP_SEED=" + std::to_string(seed));
    const Case c = random_fc_case(seed);
    const FunctionalOptions opts = random_grid(seed);

    FunctionalLoomEngine sliced(opts);
    ASSERT_NE(sliced.backend_name(), "scalar");
    const FunctionalBatchLayerRun batched =
        sliced.run_fc_batch(c.layer, c.inputs, c.weights, kBasePrecision);

    FunctionalOptions scalar_opts = opts;
    scalar_opts.backend = "scalar";
    FunctionalLoomEngine scalar(scalar_opts);

    for (std::size_t r = 0; r < c.inputs.size(); ++r) {
      SCOPED_TRACE("request " + std::to_string(r));
      const FunctionalLayerRun solo =
          scalar.run_fc(c.layer, c.inputs[r], c.weights, kBasePrecision);
      EXPECT_EQ(batched.wides[r], solo.wide);
      EXPECT_EQ(batched.outputs[r], solo.output);
      EXPECT_EQ(batched.wides[r],
                nn::fc_forward(c.inputs[r], c.weights, c.layer));
    }
  }
}

// Deterministic large-batch coverage: 8..9 requests fill several of the FC
// kernel's shared-weight-row stream groups (9 leaves a tail group); this
// pins the batched FC path against the solo engine directly.
TEST(BatchProperties, FcPackedPathMatchesSoloBitsliced) {
  for (const std::uint64_t seed : iteration_seeds(0xFCAA, 10)) {
    SCOPED_TRACE("LOOM_BATCH_PROP_SEED=" + std::to_string(seed));
    Case c = random_fc_case(seed);
    SequentialRng rng(seed, 7);
    while (c.inputs.size() < 8) {
      c.inputs.push_back(random_tensor(
          nn::Shape{c.layer.in.elements()}, kBasePrecision,
          /*is_signed=*/true, rng, 300 + c.inputs.size(), 0.1));
    }
    FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1});
    ASSERT_NE(eng.backend_name(), "scalar");
    const FunctionalBatchLayerRun batched =
        eng.run_fc_batch(c.layer, c.inputs, c.weights, kBasePrecision);
    for (std::size_t r = 0; r < c.inputs.size(); ++r) {
      const FunctionalLayerRun solo =
          eng.run_fc(c.layer, c.inputs[r], c.weights, kBasePrecision);
      EXPECT_EQ(batched.wides[r], solo.wide) << "request " << r;
    }
  }
}

// ---- cols > 64: automatic scalar-oracle fallback --------------------------

TEST(BatchFallback, ColsAbove64FallsBackToScalarForBatches) {
  const Case c = random_conv_case(0xFA11);
  FunctionalLoomEngine wide_grid(FunctionalOptions{.cols = 80, .jobs = 1});
  EXPECT_EQ(wide_grid.backend_name(), "scalar");  // unpackable: auto-fallback
  const FunctionalBatchLayerRun batched =
      wide_grid.run_conv_batch(c.layer, c.inputs, c.weights, kBasePrecision);
  for (std::size_t r = 0; r < c.inputs.size(); ++r) {
    EXPECT_EQ(batched.wides[r],
              nn::conv_forward(c.inputs[r], c.weights, c.layer))
        << "request " << r;
  }
}

// ---- Degenerate batches ---------------------------------------------------

TEST(BatchDegenerate, BatchOfOneIsByteIdenticalToSoloApi) {
  const Case c = random_conv_case(0xB1);
  FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1});
  const std::vector<nn::Tensor> one{c.inputs[0]};
  const FunctionalBatchLayerRun batched =
      eng.run_conv_batch(c.layer, one, c.weights, kBasePrecision);
  const FunctionalLayerRun solo =
      eng.run_conv(c.layer, c.inputs[0], c.weights, kBasePrecision);
  ASSERT_EQ(batched.outputs.size(), 1u);
  EXPECT_EQ(batched.wides[0], solo.wide);
  EXPECT_EQ(batched.outputs[0], solo.output);
  // A batch of one is the same work; even the modeled cycles must agree.
  EXPECT_EQ(batched.cycles, solo.cycles);
  EXPECT_EQ(batched.mean_streamed_precision, solo.mean_streamed_precision);
}

TEST(BatchDegenerate, AllZeroBatchesOnBothBackends) {
  // Every request all-zero: every dynamic-detection group has zero needed
  // bits (the "zero-precision group" edge), all bit-planes are empty, and
  // the exact accumulators must still come out as exact zeros.
  Case c = random_conv_case(0x2E80);
  for (nn::Tensor& t : c.inputs) t = nn::Tensor(t.shape());

  for (const char* backend : {"gemm", "scalar"}) {
    SCOPED_TRACE(backend);
    FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1, .backend = backend});
    const FunctionalBatchLayerRun batched =
        eng.run_conv_batch(c.layer, c.inputs, c.weights, kBasePrecision);
    for (std::size_t r = 0; r < c.inputs.size(); ++r) {
      EXPECT_EQ(batched.wides[r], nn::WideTensor(batched.wides[r].shape()))
          << "request " << r;
    }
    // Dynamic detection saw only zero groups; the detector clamps them to
    // the 1-plane minimum (needed_bits_unsigned(0) == 1) on both kernels.
    EXPECT_EQ(batched.mean_streamed_precision, 1.0);
  }
}

// ---- The autotuner as perfbench reads it ----------------------------------

// perfbench reads the process autotuner directly: infer_zoo's tuning pass
// and its autotune.explore_records metric, and the cache key a tuned cache
// is saved under. With gemm the one kernel "auto" picks from, a default
// engine leaves one decided gemm cell per weighted layer, each explored
// once, under a key that hashes the roster "gemm\n".
TEST(AutotunerView, DefaultEngineDecidesOneGemmCellPerWeightedLayer) {
  BackendAutotuner& tuner = BackendAutotuner::instance();
  tuner.reset_for_test();
  EXPECT_EQ(current_autotune_cache_key().backend_set_hash, fnv1a64("gemm\n"));

  nn::Network net("pin", nn::Shape3{3, 8, 8});
  nn::Layer& conv = net.add_conv("c1", 6, 3, 1, 1);
  conv.act_precision = 7;
  conv.weight_precision = 5;
  net.add_fc("f1", 10).weight_precision = 6;
  SequentialRng rng(0xA070, 1);
  const nn::Tensor input = random_tensor(nn::Shape{3, 8, 8}, 7,
                                         /*is_signed=*/false, rng, 1, 0.1);
  std::vector<nn::Tensor> weights;
  for (const nn::Layer& l : net.layers()) {
    weights.push_back(random_tensor(nn::Shape{l.weight_count()},
                                    l.weight_precision, /*is_signed=*/true,
                                    rng, 2 + weights.size(), 0.05));
  }

  FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1});
  ASSERT_EQ(eng.backend_name(), "auto");
  const FunctionalNetworkRun run =
      eng.run_network(net, input, WeightSet(net, weights));
  ASSERT_EQ(run.layers.size(), 2u);
  for (const FunctionalLayerRun& lr : run.layers) EXPECT_EQ(lr.backend, "gemm");

  const std::vector<BackendAutotuner::Decision> ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 2u);
  for (const BackendAutotuner::Decision& d : ds) {
    SCOPED_TRACE(d.key.to_string());
    EXPECT_EQ(d.winner, "gemm");
    ASSERT_EQ(d.samples.size(), 1u);
    EXPECT_EQ(d.samples[0].backend, "gemm");
  }
  EXPECT_EQ(tuner.cache_stats().explore_records, ds.size());
  tuner.reset_for_test();
}

/// A small Loom conv layer with its input, weights and the cell a default
/// engine at jobs 1 keys a batch-1 run of it under.
struct ViewCase {
  nn::Layer layer;
  nn::Tensor input;
  nn::Tensor weights;
  TuneKey key;
};

ViewCase view_case() {
  nn::Layer layer = nn::make_conv("view", nn::Shape3{4, 6, 6}, 8, 3, 1, 1);
  layer.act_precision = 6;
  layer.weight_precision = 4;
  SequentialRng rng(0xA071, 1);
  nn::Tensor input = random_tensor(nn::Shape{4, 6, 6}, layer.act_precision,
                                   /*is_signed=*/false, rng, 1, 0.1);
  nn::Tensor weights =
      random_tensor(nn::Shape{layer.weight_count()}, layer.weight_precision,
                    /*is_signed=*/true, rng, 2, 0.05);
  const SliceSpec spec{.act_precision = layer.act_precision,
                       .weight_precision = layer.weight_precision,
                       .dynamic = true};
  const TuneKey key = conv_tune_key(layer, spec, 1, GridOptions{.jobs = 1});
  return {std::move(layer), std::move(input), std::move(weights), key};
}

// Warm-up passes until every cell is decided: one run decides the cell and
// later runs of the same layer explore nothing and add no sample.
TEST(AutotunerView, TwoRunsOfOneLayerLeaveOneGemmSampleExploredOnce) {
  BackendAutotuner& tuner = BackendAutotuner::instance();
  tuner.reset_for_test();
  const ViewCase c = view_case();
  FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1});
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(eng.run_conv(c.layer, c.input, c.weights, kBasePrecision).backend,
              "gemm");
  }
  const std::vector<BackendAutotuner::Decision> ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].key, c.key);
  EXPECT_EQ(ds[0].winner, "gemm");
  ASSERT_EQ(ds[0].samples.size(), 1u);
  EXPECT_EQ(ds[0].samples[0].backend, "gemm");
  EXPECT_EQ(tuner.cache_stats().explore_records, 1u);
  tuner.reset_for_test();
}

// infer_zoo loads a tuned cache, then measures with autotune.explore_records
// held at zero: runs of an installed cell explore nothing and keep its
// winner and its (minimum) sample.
TEST(AutotunerView, InstalledGemmCellAbsorbsRunsWithoutExploring) {
  BackendAutotuner& tuner = BackendAutotuner::instance();
  tuner.reset_for_test();
  const ViewCase c = view_case();
  const BackendAutotuner::Decision cell{
      .key = c.key, .winner = "gemm", .samples = {{"gemm", 1}}};
  ASSERT_EQ(tuner.install({&cell, 1}), 1u);
  FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1});
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(eng.run_conv(c.layer, c.input, c.weights, kBasePrecision).backend,
              "gemm");
  }
  const std::vector<BackendAutotuner::Decision> ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].winner, "gemm");
  ASSERT_EQ(ds[0].samples.size(), 1u);
  EXPECT_EQ(ds[0].samples[0].backend, "gemm");
  EXPECT_EQ(ds[0].samples[0].ns, 1u);
  EXPECT_EQ(tuner.cache_stats().explore_records, 0u);
  tuner.reset_for_test();
}

}  // namespace
}  // namespace loom::sim
