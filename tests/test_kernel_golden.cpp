// Golden digests for every kernel "auto" can pick on real zoo geometry,
// plus autotuner determinism. The digests pin the exact bytes
// (accumulators, requantized outputs, cycles, streamed-precision mean) the
// kernels produce on profiled AlexNet and NiN layers — any change to a
// kernel's operand masking, accumulation or the shared streaming-statistics
// pass shows up as a digest break here before it can drift. Every such
// kernel must produce the *same* digest: byte-identity is the contract, the
// constant just anchors it to history.
//
// The autotuner tests feed record() literal timings for two kernel names —
// gemm and a second name for it — and assert that cells are reproducible:
// the first record decides a cell, later records keep its winner and the
// minimum time per kernel, and distinct geometries keep distinct cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "golden.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"

namespace loom::sim {
namespace {

using golden::Fnv;

/// Find a weighted layer by name in a profiled zoo network.
nn::Layer zoo_layer(const std::string& network, const std::string& layer) {
  nn::Network net = nn::zoo::make(network);
  quant::apply_profile(net, quant::profile_for(network,
                                               quant::AccuracyTarget::k100));
  for (const nn::Layer& l : net.layers()) {
    if (l.name == layer) return l;
  }
  ADD_FAILURE() << network << " has no layer " << layer;
  return net.layers().front();
}

/// Deterministic synthetic data: unsigned profiled-precision activations
/// (top bit clear — post-ReLU), signed profiled-precision weights.
nn::Tensor synth(const nn::Shape& shape, int precision, bool is_signed,
                 std::uint64_t seed, std::uint64_t stream) {
  nn::Tensor t(shape);
  CounterRng rng(seed, stream);
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const std::uint64_t u = rng.bits(static_cast<std::uint64_t>(i));
    if (is_signed) {
      const auto span = std::int64_t{1} << precision;
      t.set_flat(i, static_cast<Value>(static_cast<std::int64_t>(u % span) -
                                       (span >> 1)));
    } else {
      const int bits = std::min(precision, 15);
      t.set_flat(i, static_cast<Value>(u & ((1u << bits) - 1)));
    }
  }
  return t;
}

std::uint64_t digest(const FunctionalLayerRun& run) {
  Fnv f;
  f.wide(run.wide);
  f.tensor(run.output);
  f.u64(run.cycles);
  f.i64(run.requant_shift);
  f.f64(run.mean_streamed_precision);
  return f.h;
}

struct GoldenCase {
  const char* network;
  const char* layer;
  std::uint64_t want;
};

// FNV-1a digests captured from the table-lookup kernel when it was
// introduced; every surviving kernel produces identical bytes (asserted
// below, not assumed).
constexpr GoldenCase kGoldenConv[] = {
    {"alexnet", "conv5", 0xe5724174fa286308ull},
    {"nin", "cccp3", 0x8b65031dd9e57c41ull},
    {"nin", "cccp6", 0x6245af9a014fec88ull},
};
constexpr std::uint64_t kGoldenAlexnetFc8 = 0x7b0e56705ac3b0e7ull;

/// The kernels "auto" can pick, so each one must hit the golden bytes.
const std::vector<std::string> kAutoKernels = {"gemm"};

TEST(KernelGolden, ConvDigestsOnZooLayers) {
  for (const GoldenCase& gc : kGoldenConv) {
    SCOPED_TRACE(std::string(gc.network) + "/" + gc.layer);
    const nn::Layer layer = zoo_layer(gc.network, gc.layer);
    const nn::Tensor input =
        synth(nn::Shape{layer.in.c, layer.in.h, layer.in.w},
              layer.act_precision, false, 0x10CAu, 7);
    const nn::Tensor weights = synth(nn::Shape{layer.weight_count()},
                                     layer.weight_precision, true, 0x10CAu, 9);
    std::uint64_t first = 0;
    for (const std::string& backend : kAutoKernels) {
      SCOPED_TRACE(backend);
      FunctionalLoomEngine eng(
          FunctionalOptions{.jobs = 1, .backend = backend});
      const FunctionalLayerRun run =
          eng.run_conv(layer, input, weights, kBasePrecision);
      EXPECT_EQ(run.backend, backend);
      const std::uint64_t d = digest(run);
      if (first == 0) first = d;
      EXPECT_EQ(d, first) << "backends disagree";
      EXPECT_EQ(d, gc.want) << std::hex << "digest 0x" << d;
    }
  }
}

TEST(KernelGolden, FcDigestOnAlexnetFc8) {
  const nn::Layer layer = zoo_layer("alexnet", "fc8");
  const nn::Tensor input = synth(nn::Shape{layer.in.elements()},
                                 kBasePrecision, true, 0xFC8u, 7);
  const nn::Tensor weights = synth(nn::Shape{layer.weight_count()},
                                   layer.weight_precision, true, 0xFC8u, 9);
  std::uint64_t first = 0;
  for (const std::string& backend : kAutoKernels) {
    SCOPED_TRACE(backend);
    FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1, .backend = backend});
    const FunctionalLayerRun run =
        eng.run_fc(layer, input, weights, kBasePrecision);
    EXPECT_EQ(run.backend, backend);
    const std::uint64_t d = digest(run);
    if (first == 0) first = d;
    EXPECT_EQ(d, first) << "backends disagree";
    EXPECT_EQ(d, kGoldenAlexnetFc8) << std::hex << "digest 0x" << d;
  }
}

// ---- Autotuner determinism ------------------------------------------------

class AutotunerTest : public ::testing::Test {
 protected:
  void SetUp() override { BackendAutotuner::instance().reset_for_test(); }
  void TearDown() override { BackendAutotuner::instance().reset_for_test(); }

  /// A second kernel name: only the engine's first record decides a cell,
  /// so a later record under another name must not move its winner.
  static constexpr const char* kMirror = "gemm-mirror";

  /// The cell an engine on the default grid at jobs 1 keys a batch-1 run of
  /// a small conv layer with weight precision `pw` under.
  static TuneKey small_key(int pw) {
    nn::Layer l = nn::make_conv("tune", nn::Shape3{8, 6, 6}, 12, 3, 1, 1);
    const SliceSpec spec{.act_precision = 7,
                         .weight_precision = pw,
                         .dynamic = true};
    return conv_tune_key(l, spec, 1, GridOptions{.jobs = 1});
  }
};

TEST_F(AutotunerTest, FirstRecordDecidesAndLaterRecordsKeepTheMinimum) {
  auto& tuner = BackendAutotuner::instance();
  const TuneKey key = small_key(3);

  // The first record decides the cell, and counts as its one exploration.
  tuner.record(key, "gemm", 100);
  tuner.record(key, kMirror, 10);
  tuner.record(key, "gemm", 300);
  tuner.record(key, "gemm", 50);

  std::vector<BackendAutotuner::Decision> ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].key, key);
  EXPECT_EQ(ds[0].winner, "gemm");  // a faster later kernel does not flip it
  ASSERT_EQ(ds[0].samples.size(), 2u);
  EXPECT_EQ(ds[0].samples[0].backend, "gemm");
  EXPECT_EQ(ds[0].samples[0].ns, 50u);
  EXPECT_EQ(ds[0].samples[1].backend, kMirror);
  EXPECT_EQ(ds[0].samples[1].ns, 10u);
  EXPECT_EQ(tuner.cache_stats().explore_records, 1u);

  // After a reset the first record decides afresh.
  tuner.reset_for_test();
  EXPECT_EQ(tuner.cache_stats().explore_records, 0u);
  tuner.record(key, kMirror, 200);
  ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].winner, kMirror);
}

TEST_F(AutotunerTest, DistinctGeometriesGetDistinctCells) {
  auto& tuner = BackendAutotuner::instance();
  // Different winners per geometry: the autotuner must keep them apart.
  tuner.record(small_key(3), "gemm", 10);
  tuner.record(small_key(12), kMirror, 10);
  tuner.record(small_key(12), "gemm", 100);

  const std::vector<BackendAutotuner::Decision> ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 2u);
  for (const BackendAutotuner::Decision& d : ds) {
    SCOPED_TRACE(d.key.to_string());
    EXPECT_EQ(d.winner, d.key == small_key(3) ? "gemm" : kMirror);
    EXPECT_EQ(d.samples.size(), d.key == small_key(3) ? 1u : 2u);
  }
  EXPECT_NE(ds[0].key, ds[1].key);
  EXPECT_EQ(tuner.cache_stats().explore_records, 2u);
}

}  // namespace
}  // namespace loom::sim
