// Persistent autotune cache: format safety and cross-process memoization.
//
// The corruption battery mirrors test_model_snapshot.cpp: every truncation
// length and every flipped bit of a valid cache image must surface as a
// typed AutotuneCacheError — never a crash, never a silently-installed
// winner — and a rejected load leaves the in-memory autotuner exactly as it
// was. The round-trip test simulates two processes with reset_for_test():
// a default "auto" engine decides a cell, the cell is saved, the autotuner
// reset and the cache loaded, and the second "process" then runs the layer
// with zero exploration records. Cells with several samples are installed
// as literal Decisions, with gemm and a second name for it, keyed as a
// default engine keys the layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "sim/autotune_cache.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"

namespace loom::sim {
namespace {

/// Deterministic synthetic data (same idiom as test_kernel_golden).
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

class AutotuneCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { BackendAutotuner::instance().reset_for_test(); }
  void TearDown() override {
    SetUp();
    std::remove(cache_path().c_str());
  }

  static std::string cache_path() {
    return testing::TempDir() + "loom_autotune_cache_test.bin";
  }

  static constexpr const char* kMirror = "gemm-mirror";

  static nn::Layer small_layer() {
    nn::Layer l = nn::make_conv("tune", nn::Shape3{8, 6, 6}, 12, 3, 1, 1);
    l.act_precision = 7;
    l.weight_precision = 3;
    return l;
  }

  /// Run the layer once through a fresh "auto" engine; returns the kernel
  /// that actually ran it.
  static std::string run_auto(const nn::Layer& layer, const nn::Tensor& input,
                              const nn::Tensor& weights) {
    FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1, .backend = "auto"});
    return eng.run_conv(layer, input, weights, kBasePrecision).backend;
  }

  /// The cell a default engine at jobs 1 keys a batch-1 run of
  /// small_layer() under.
  static TuneKey small_key() {
    const nn::Layer layer = small_layer();
    const SliceSpec spec{.act_precision = layer.act_precision,
                         .weight_precision = layer.weight_precision,
                         .dynamic = true};
    return conv_tune_key(layer, spec, 1, GridOptions{.jobs = 1});
  }

  /// Install one decided cell with two samples (winner "gemm") under the
  /// small layer's key.
  static void install_two_sample_cell() {
    const BackendAutotuner::Decision d{
        .key = small_key(),
        .winner = "gemm",
        .samples = {{"gemm", 100}, {kMirror, 200}}};
    ASSERT_EQ(BackendAutotuner::instance().install({&d, 1}), 1u);
  }

  /// A hand-built decided cell with distinctive values in every TuneKey
  /// field (fc-kind, so it also covers the non-conv path).
  static BackendAutotuner::Decision sample_decision() {
    BackendAutotuner::Decision d;
    d.key = TuneKey{.kind = 1,
                    .in_c = 4096,
                    .in_h = 1,
                    .in_w = 1,
                    .out_c = 1000,
                    .kernel_h = 1,
                    .kernel_w = 1,
                    .stride = 1,
                    .pad = 0,
                    .groups = 1,
                    .pa = 9,
                    .pw = 8,
                    .act_signed = false,
                    .dynamic = true,
                    .batch = 3,
                    .rows = 16,
                    .cols = 16,
                    .lanes = 16,
                    .jobs = 2};
    d.winner = "lut";
    d.samples = {{"bitslice", 222}, {"lut", 111}, {"lut-outer", 333}};
    return d;
  }

  static std::vector<std::uint8_t> image_of(
      const std::vector<BackendAutotuner::Decision>& ds) {
    return encode_autotune_cache(ds, current_autotune_cache_key());
  }
};

// ---- Two-"process" round trip ---------------------------------------------

TEST_F(AutotuneCacheTest, SecondProcessStartsWarmWithZeroExploration) {
  auto& tuner = BackendAutotuner::instance();
  const nn::Layer layer = small_layer();
  const nn::Tensor input = synth(nn::Shape{layer.in.c, layer.in.h, layer.in.w},
                                 layer.act_precision, false, 1, 7);
  const nn::Tensor weights = synth(nn::Shape{layer.weight_count()},
                                   layer.weight_precision, true, 1, 9);

  // Cold "process": the first run decides the cell, the second adds no
  // exploration.
  EXPECT_EQ(run_auto(layer, input, weights), "gemm");
  EXPECT_EQ(run_auto(layer, input, weights), "gemm");
  const auto cold = tuner.decisions();
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(cold[0].key, small_key());
  EXPECT_EQ(cold[0].winner, "gemm");
  ASSERT_EQ(cold[0].samples.size(), 1u);
  EXPECT_EQ(tuner.cache_stats().explore_records, 1u);

  save_autotune_cache(cache_path());

  // "Process" two: empty autotuner, warm cache.
  tuner.reset_for_test();
  ASSERT_EQ(tuner.decisions().size(), 0u);
  ASSERT_EQ(load_autotune_cache(cache_path()), 1u);

  const auto ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].key, cold[0].key);
  EXPECT_EQ(ds[0].winner, "gemm");
  ASSERT_EQ(ds[0].samples.size(), 1u);
  EXPECT_EQ(ds[0].samples[0].ns, cold[0].samples[0].ns);

  // The warm-start criterion: the installed cell absorbs a default
  // engine's runs with no exploration.
  EXPECT_EQ(run_auto(layer, input, weights), "gemm");
  EXPECT_EQ(run_auto(layer, input, weights), "gemm");
  EXPECT_EQ(tuner.decisions().size(), 1u);
  EXPECT_EQ(tuner.cache_stats().explore_records, 0u);
}

TEST_F(AutotuneCacheTest, CellFieldsRoundTripExactly) {
  const BackendAutotuner::Decision d = sample_decision();
  const auto decoded =
      decode_autotune_cache(image_of({d}), current_autotune_cache_key());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].key, d.key);
  EXPECT_EQ(decoded[0].winner, d.winner);
  ASSERT_EQ(decoded[0].samples.size(), d.samples.size());
  for (std::size_t i = 0; i < d.samples.size(); ++i) {
    EXPECT_EQ(decoded[0].samples[i].backend, d.samples[i].backend);
    EXPECT_EQ(decoded[0].samples[i].ns, d.samples[i].ns);
  }
}

TEST_F(AutotuneCacheTest, EncodeSkipsUndecidedAndOrphanCells) {
  BackendAutotuner::Decision undecided = sample_decision();
  undecided.winner.clear();
  BackendAutotuner::Decision unsampled = sample_decision();
  unsampled.key.batch = 7;  // distinct cell
  unsampled.samples.clear();
  BackendAutotuner::Decision orphan = sample_decision();
  orphan.key.batch = 8;
  orphan.winner = "not-sampled";
  const BackendAutotuner::Decision good = sample_decision();

  const auto decoded = decode_autotune_cache(
      image_of({undecided, unsampled, orphan, good}),
      current_autotune_cache_key());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].key, good.key);
}

TEST_F(AutotuneCacheTest, EncodedImageIsByteStable) {
  // Caches written by earlier builds must keep loading: pin the exact image
  // under a fixed key (the process key varies with the host's SIMD tier).
  const auto image = encode_autotune_cache(
      {{sample_decision()}}, AutotuneCacheKey{"avx2", 0x0123456789abcdef});
  EXPECT_EQ(image.size(), 257u);
  EXPECT_EQ(fnv1a64(image), 0x9c051b59995c234full);
}

// ---- Corruption battery ----------------------------------------------------

TEST_F(AutotuneCacheTest, EveryTruncationFailsTyped) {
  const auto image = image_of({sample_decision()});
  EXPECT_NO_THROW(
      (void)decode_autotune_cache(image, current_autotune_cache_key()));
  for (std::size_t n = 0; n < image.size(); ++n) {
    const std::span<const std::uint8_t> prefix(image.data(), n);
    EXPECT_THROW(
        (void)decode_autotune_cache(prefix, current_autotune_cache_key()),
        AutotuneCacheError)
        << "truncated to " << n << " of " << image.size() << " bytes";
  }
}

TEST_F(AutotuneCacheTest, EveryBitFlipFailsTyped) {
  const auto image = image_of({sample_decision()});
  for (std::size_t bit = 0; bit < image.size() * 8; ++bit) {
    auto corrupt = image;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(
        (void)decode_autotune_cache(corrupt, current_autotune_cache_key()),
        AutotuneCacheError)
        << "flipped bit " << bit;
  }
  // The pristine image still decodes — the loop never mutated it.
  EXPECT_NO_THROW(
      (void)decode_autotune_cache(image, current_autotune_cache_key()));
}

TEST_F(AutotuneCacheTest, VersionSkewRejected) {
  auto image = image_of({sample_decision()});
  image[8] ^= 0x01;  // version u32 follows the 8-byte magic
  EXPECT_THROW(
      (void)decode_autotune_cache(image, current_autotune_cache_key()),
      AutotuneCacheError);
}

TEST_F(AutotuneCacheTest, ForeignKeysRejected) {
  const AutotuneCacheKey mine = current_autotune_cache_key();

  AutotuneCacheKey other_simd = mine;
  other_simd.simd = mine.simd == "scalar" ? "avx512" : "scalar";
  EXPECT_THROW((void)decode_autotune_cache(
                   encode_autotune_cache({{sample_decision()}}, other_simd),
                   mine),
               AutotuneCacheError);

  AutotuneCacheKey other_set = mine;
  other_set.backend_set_hash ^= 1;
  EXPECT_THROW((void)decode_autotune_cache(
                   encode_autotune_cache({{sample_decision()}}, other_set),
                   mine),
               AutotuneCacheError);
}

TEST_F(AutotuneCacheTest, MissingFileThrows) {
  EXPECT_THROW((void)load_autotune_cache(testing::TempDir() +
                                         "no_such_autotune_cache.bin"),
               AutotuneCacheError);
}

// ---- Rejection never poisons in-memory state -------------------------------

TEST_F(AutotuneCacheTest, RejectedLoadLeavesAutotunerUntouched) {
  auto& tuner = BackendAutotuner::instance();
  install_two_sample_cell();
  save_autotune_cache(cache_path());

  // Corrupt one payload byte on disk (past the 20-byte header).
  {
    std::FILE* f = std::fopen(cache_path().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }

  const auto before = tuner.decisions();
  EXPECT_THROW((void)load_autotune_cache(cache_path()), AutotuneCacheError);
  const auto after = tuner.decisions();
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(after[0].winner, before[0].winner);
  ASSERT_EQ(after[0].samples.size(), before[0].samples.size());
  for (std::size_t i = 0; i < before[0].samples.size(); ++i) {
    EXPECT_EQ(after[0].samples[i].backend, before[0].samples[i].backend);
    EXPECT_EQ(after[0].samples[i].ns, before[0].samples[i].ns);
  }

  // Into an empty autotuner too, where a half-install would show.
  tuner.reset_for_test();
  EXPECT_THROW((void)load_autotune_cache(cache_path()), AutotuneCacheError);
  EXPECT_EQ(tuner.decisions().size(), 0u);
}

TEST_F(AutotuneCacheTest, InstallNeverOverridesInProcessCells) {
  auto& tuner = BackendAutotuner::instance();
  tuner.record(small_key(), "gemm", 100);
  const auto ds = tuner.decisions();
  ASSERT_EQ(ds.size(), 1u);

  // A cache claiming a different winner for the same key must lose to the
  // cell this process measured itself.
  const BackendAutotuner::Decision rival{
      .key = small_key(),
      .winner = kMirror,
      .samples = {{"gemm", 1}, {kMirror, 1}}};
  EXPECT_EQ(tuner.install({&rival, 1}), 0u);
  const auto after = tuner.decisions();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].winner, "gemm");
  ASSERT_EQ(after[0].samples.size(), 1u);
  EXPECT_EQ(after[0].samples[0].ns, 100u);
}

}  // namespace
}  // namespace loom::sim
