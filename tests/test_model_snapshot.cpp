// Crash-safe binary model snapshots: round-trip exactness and fuzz-style
// corruption coverage. The format promises that EVERY malformed input —
// truncation at any byte, a flip of any bit, version skew, tampered
// lengths, trailing garbage — fails decode with a typed SnapshotError,
// never UB and never a silently-wrong model. These tests pin that promise
// by attacking a real encoded snapshot byte by byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "serve/fault_injector.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "sim/functional.hpp"

namespace loom::serve {
namespace {

Model make_model() {
  ModelRegistry registry;
  nn::Network net("convnet", nn::Shape3{6, 12, 12});
  net.add_conv("c1", 12, 3, 1, 1).precision_group = 0;
  net.add_pool("p1", nn::PoolKind::kMax, 2, 2);
  net.add_fc("logits", 9);
  quant::PrecisionProfile p;
  p.network = "convnet";
  p.conv_act = {7};
  p.conv_weight = 9;
  p.fc_weight = {8};
  p.dynamic_act_trim = 1.5;
  quant::apply_profile(net, p);
  registry.add_synthetic("convnet", std::move(net), p, /*seed=*/31);
  return *registry.find("convnet");
}

void expect_equal_models(const Model& a, const Model& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.net.name(), b.net.name());
  EXPECT_EQ(a.net.input(), b.net.input());
  EXPECT_EQ(a.net.current(), b.net.current());
  ASSERT_EQ(a.net.size(), b.net.size());
  for (std::size_t i = 0; i < a.net.size(); ++i) {
    const nn::Layer& la = a.net.layer(i);
    const nn::Layer& lb = b.net.layer(i);
    EXPECT_EQ(la.kind, lb.kind) << "layer " << i;
    EXPECT_EQ(la.name, lb.name) << "layer " << i;
    EXPECT_EQ(la.in, lb.in) << "layer " << i;
    EXPECT_EQ(la.out, lb.out) << "layer " << i;
    EXPECT_EQ(la.kernel_h, lb.kernel_h) << "layer " << i;
    EXPECT_EQ(la.kernel_w, lb.kernel_w) << "layer " << i;
    EXPECT_EQ(la.stride, lb.stride) << "layer " << i;
    EXPECT_EQ(la.pad, lb.pad) << "layer " << i;
    EXPECT_EQ(la.groups, lb.groups) << "layer " << i;
    EXPECT_EQ(la.pool, lb.pool) << "layer " << i;
    EXPECT_EQ(la.act_precision, lb.act_precision) << "layer " << i;
    EXPECT_EQ(la.weight_precision, lb.weight_precision) << "layer " << i;
    EXPECT_EQ(la.precision_group, lb.precision_group) << "layer " << i;
  }
  EXPECT_EQ(a.profile.network, b.profile.network);
  EXPECT_EQ(a.profile.target, b.profile.target);
  EXPECT_EQ(a.profile.conv_act, b.profile.conv_act);
  EXPECT_EQ(a.profile.conv_weight, b.profile.conv_weight);
  EXPECT_EQ(a.profile.fc_weight, b.profile.fc_weight);
  EXPECT_EQ(a.profile.dynamic_act_trim, b.profile.dynamic_act_trim);
  EXPECT_EQ(a.input_spec.precision, b.input_spec.precision);
  EXPECT_EQ(a.input_spec.alpha, b.input_spec.alpha);
  EXPECT_EQ(a.input_spec.is_signed, b.input_spec.is_signed);
  EXPECT_EQ(a.input_spec.zero_fraction, b.input_spec.zero_fraction);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight tensor " << i;
  }
}

TEST(ModelSnapshot, EncodeDecodeRoundTripIsExact) {
  const Model original = make_model();
  const std::vector<std::uint8_t> bytes = encode_snapshot(original);
  const Model decoded = decode_snapshot(bytes);
  expect_equal_models(original, decoded);

  // Encoding is deterministic: the same model snapshots to the same bytes.
  EXPECT_EQ(bytes, encode_snapshot(decoded));

  // The restored model serves byte-identical outputs.
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
  const nn::Tensor input = original.make_input(/*seed=*/7, /*stream=*/0);
  const nn::Tensor a =
      engine.run_network(original.net, input, original.weights).output;
  const nn::Tensor b =
      engine.run_network(decoded.net, input, decoded.weights).output;
  EXPECT_EQ(a, b);
}

TEST(ModelSnapshot, EncodedImageIsByteStable) {
  // The on-disk layout is a compatibility promise: files written by earlier
  // builds must keep loading. Round-trip tests alone would pass even if the
  // layout drifted, so pin the exact image of the fixture model.
  const std::vector<std::uint8_t> bytes = encode_snapshot(make_model());
  EXPECT_EQ(bytes.size(), 9680u);
  EXPECT_EQ(loom::fnv1a64(bytes), 0xc232f34ce2d00e9cull);
}

TEST(ModelSnapshot, SaveLoadRoundTripsThroughDisk) {
  const Model original = make_model();
  const std::string path = testing::TempDir() + "loom_snapshot_roundtrip.bin";
  save_snapshot(original, path);
  const std::shared_ptr<const Model> loaded = load_snapshot(path);
  expect_equal_models(original, *loaded);
  EXPECT_EQ(std::remove(path.c_str()), 0);
  // The tmp file used for the atomic rename must not survive.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

TEST(ModelSnapshot, LoadedModelRegistersAndServes) {
  const Model original = make_model();
  const std::string path = testing::TempDir() + "loom_snapshot_register.bin";
  save_snapshot(original, path);

  ModelRegistry registry;
  registry.add(*load_snapshot(path));
  const auto handle = registry.find("convnet");
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
  const nn::Tensor input = original.make_input(/*seed=*/7, /*stream=*/1);
  EXPECT_EQ(engine.run_network(original.net, input, original.weights).output,
            engine.run_network(handle->net, input, handle->weights).output);
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(ModelSnapshot, RestoredModelPreparesTheSameWeights) {
  // The prepared conv planes are derived data: the snapshot carries only
  // the flat tensors, decode rebuilds planes equal to the original's, and
  // registering the loaded model shares them rather than building a second
  // copy, so both serve byte-identical layers. c1 is shallow (inner 54) and
  // c2 deep (inner 216, byte planes on the AMX tier), at Pa 9 / Pw 12.
  nn::Network net("deepnet", nn::Shape3{6, 12, 12});
  net.add_conv("c1", 24, 3, 1, 1).precision_group = 0;
  net.add_conv("c2", 20, 3, 1, 1).precision_group = 1;
  net.add_fc("logits", 9);
  quant::PrecisionProfile p;
  p.network = "deepnet";
  p.conv_act = {9, 9};
  p.conv_weight = 12;
  p.fc_weight = {8};
  quant::apply_profile(net, p);
  ModelRegistry saved;
  const auto original = saved.add_synthetic("deepnet", std::move(net), p, 3);
  const std::string path = testing::TempDir() + "loom_snapshot_prepared.bin";
  save_snapshot(*original, path);
  const std::shared_ptr<const Model> loaded = load_snapshot(path);
  EXPECT_EQ(std::remove(path.c_str()), 0);
  ModelRegistry restored;
  const auto handle = restored.add(*loaded);

  ASSERT_EQ(handle->weights.size(), original->weights.size());
  for (std::size_t i = 0; i < original->weights.size(); ++i) {
    const sim::PreparedConv* a = original->weights.prepared(i);
    const sim::PreparedConv* b = loaded->weights.prepared(i);
    ASSERT_EQ(a == nullptr, b == nullptr) << "weight tensor " << i;
    if (a != nullptr) {
      EXPECT_TRUE(*a == *b) << "weight tensor " << i;
    }
    EXPECT_EQ(handle->weights.prepared(i), b) << "weight tensor " << i;
  }
  EXPECT_EQ(encode_snapshot(*handle), encode_snapshot(*original));

  sim::FunctionalLoomEngine engine(
      sim::FunctionalOptions{.jobs = 1, .backend = "gemm"});
  const std::vector<nn::Tensor> inputs{original->make_input(7, 0),
                                       original->make_input(7, 1)};
  const sim::FunctionalBatchNetworkRun a =
      engine.run_network_batch(original->net, inputs, original->weights);
  const sim::FunctionalBatchNetworkRun b =
      engine.run_network_batch(handle->net, inputs, handle->weights);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].wides, b.layers[i].wides) << a.layers[i].name;
    EXPECT_EQ(a.layers[i].cycles, b.layers[i].cycles) << a.layers[i].name;
  }
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(ModelSnapshot, RegistryAddRejectsWeightMismatch) {
  // A set holds exactly its own network's tensors, so a model can only
  // carry too few through a set built for another network: here the same
  // one without its FC layer.
  Model model = make_model();
  std::vector<nn::Tensor> weights(model.weights.begin(), model.weights.end());
  weights.pop_back();
  nn::Network headless = model.net;
  headless.layers().pop_back();
  model.weights = sim::WeightSet(headless, std::move(weights));
  ModelRegistry registry;
  EXPECT_THROW(registry.add(std::move(model)), ConfigError);
}

TEST(ModelSnapshot, RegistryAddRejectsTruncatedWeightTensor) {
  Model model = make_model();
  std::vector<nn::Tensor> weights(model.weights.begin(), model.weights.end());
  weights[0] = nn::Tensor(nn::Shape{weights[0].elements() - 1});
  EXPECT_THROW((void)sim::WeightSet(model.net, weights), ConfigError);
  ModelRegistry registry;
  EXPECT_THROW(registry.add("convnet", model.net, model.profile, weights),
               ConfigError);
  // A set built for c1 as a 1x1 conv (the same 12x12 output) holds a
  // tensor too short for the 3x3 c1 of the model's network.
  nn::Network pointwise = model.net;
  pointwise.layers()[0].kernel_h = pointwise.layers()[0].kernel_w = 1;
  pointwise.layers()[0].pad = 0;
  weights[0] = nn::Tensor(nn::Shape{pointwise.layer(0).weight_count()});
  model.weights = sim::WeightSet(pointwise, weights);
  EXPECT_THROW(registry.add(model), ConfigError);
}

TEST(ModelSnapshot, RegistryAddRejectsWeightsPreparedAtAnotherPw) {
  // The same topology and tensors, prepared for c1 at Pw 11 rather than the
  // model's 9: the planes do not fit, so the registry refuses the model
  // rather than serve stale planes.
  Model model = make_model();
  nn::Network other = model.net;
  other.layers()[0].weight_precision = 11;
  model.weights = sim::WeightSet(
      other, std::vector<nn::Tensor>(model.weights.begin(), model.weights.end()));
  ModelRegistry registry;
  EXPECT_THROW(registry.add(model), ConfigError);
  EXPECT_TRUE(registry.names().empty());
}

TEST(ModelSnapshot, RegistryAddRejectsBrokenLayerChain) {
  // GoogLeNet's flattened inception branches do not chain, so no engine can
  // run it: the registry refuses it like snapshot decode does, rather than
  // serving a model whose every request fails.
  nn::Network net = nn::zoo::make("googlenet");
  const quant::PrecisionProfile p =
      quant::profile_for("googlenet", quant::AccuracyTarget::k100);
  quant::apply_profile(net, p);
  ASSERT_LT(net.first_chain_break(), net.size());
  ModelRegistry registry;
  EXPECT_THROW((void)registry.add_synthetic("googlenet", std::move(net), p, 1),
               ConfigError);
  EXPECT_TRUE(registry.names().empty());
}

TEST(ModelSnapshot, BrokenLayerChainIsRejected) {
  // Well-formed and checksummed, but the pool no longer reads what the conv
  // produced: decode must refuse it rather than hand the engine a layer
  // that reads past its producer's output.
  Model model = make_model();
  model.net.layers()[1].in.h += 2;
  EXPECT_THROW((void)decode_snapshot(encode_snapshot(model)), SnapshotError);
}

/// One valid conv, 8x20x20 -> 24 filters 3x3, stride 1, pad 1.
Model make_one_conv_model() {
  ModelRegistry registry;
  nn::Network net("oneconv", nn::Shape3{8, 20, 20});
  net.add_conv("c1", 24, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "oneconv";
  p.conv_act = {8};
  p.conv_weight = 11;
  quant::apply_profile(net, p);
  registry.add_synthetic("oneconv", std::move(net), p, /*seed=*/5);
  return *registry.find("oneconv");
}

TEST(ModelSnapshot, ImpossibleLayerGeometryIsRejected) {
  // Checksummed and chained (a single layer), with the weight count intact,
  // but the conv claims a 24x40x40 output its 3x3 pad-1 geometry over a
  // 20x20 input cannot produce: every window past the first 20 rows and
  // columns would read outside the padded input. Decode, the registry and
  // the engine all refuse it.
  Model model = make_one_conv_model();
  model.net.layers()[0].out = nn::Shape3{24, 40, 40};
  model.net.set_current(model.net.layers()[0].out);
  EXPECT_THROW((void)decode_snapshot(encode_snapshot(model)), SnapshotError);
  ModelRegistry registry;
  EXPECT_THROW((void)registry.add(model), ConfigError);
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
  const nn::Tensor input = model.make_input(1, 0);
  EXPECT_THROW((void)engine.run_network(model.net, input, model.weights),
               ConfigError);
  EXPECT_THROW((void)engine.run_conv(model.net.layer(0), input,
                                     model.weights[0], 8),
               ConfigError);
}

TEST(ModelSnapshot, EveryImpossibleGeometryFieldIsRejected) {
  // Each edit leaves the layer chained to the network input and its weight
  // count unchanged, so only the geometry check can catch it.
  const auto edits = std::vector<void (*)(nn::Layer&)>{
      [](nn::Layer& l) { l.out.h = 19; },  // not the floor extent
      [](nn::Layer& l) { l.out.w = 21; },
      [](nn::Layer& l) { l.stride = 2; },  // out no longer matches
      [](nn::Layer& l) { l.pad = 0; },
      [](nn::Layer& l) {  // 9x1: same weight count, other extents
        l.kernel_h = 9;
        l.kernel_w = 1;
      },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    Model model = make_one_conv_model();
    edits[i](model.net.layers()[0]);
    EXPECT_FALSE(nn::geometry_consistent(model.net.layer(0))) << "edit " << i;
    EXPECT_THROW((void)decode_snapshot(encode_snapshot(model)), SnapshotError)
        << "edit " << i;
  }
  // A kernel larger than the padded input has no window at all.
  nn::Layer conv = make_one_conv_model().net.layer(0);
  conv.kernel_h = 23;
  EXPECT_FALSE(nn::geometry_consistent(conv));
  // A pool may take the floor or the ceil extent, nothing else.
  nn::Layer pool = nn::make_pool("p", nn::Shape3{4, 14, 14}, nn::PoolKind::kMax,
                                 3, 2, 0, /*ceil_mode=*/true);
  ASSERT_EQ(pool.out.h, 7);
  EXPECT_TRUE(nn::geometry_consistent(pool));
  pool.out.h = 6;  // the floor extent
  EXPECT_TRUE(nn::geometry_consistent(pool));
  pool.out.h = 8;
  EXPECT_FALSE(nn::geometry_consistent(pool));
}

TEST(ModelSnapshot, TruncationAtEveryLengthFails) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(make_model());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)decode_snapshot(cut), SnapshotError)
        << "truncated to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(ModelSnapshot, AnyBitFlipFails) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(make_model());
  const std::uint64_t total_bits = bytes.size() * 8;

  // Every bit of the header + first section descriptors (the structural
  // bytes), plus a deterministic random sample across the whole image.
  std::vector<std::uint64_t> positions;
  for (std::uint64_t b = 0; b < 96 * 8; ++b) positions.push_back(b);
  const CounterRng rng(0x5EED, 0);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    positions.push_back(rng.below(i, total_bits));
  }

  for (const std::uint64_t bit : positions) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW((void)decode_snapshot(mutated), SnapshotError)
        << "bit " << bit << " of " << total_bits;
  }
}

TEST(ModelSnapshot, VersionSkewFails) {
  std::vector<std::uint8_t> bytes = encode_snapshot(make_model());
  bytes[8] = static_cast<std::uint8_t>(kSnapshotVersion + 1);  // version u32 LE
  EXPECT_THROW((void)decode_snapshot(bytes), SnapshotError);
}

TEST(ModelSnapshot, TamperedSectionLengthFails) {
  std::vector<std::uint8_t> bytes = encode_snapshot(make_model());
  // First section descriptor starts after magic(8) + version(4) + count(4);
  // its length u64 follows the id u32.
  const std::size_t length_at = 8 + 4 + 4 + 4;
  for (const int delta : {+1, -1}) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[length_at] = static_cast<std::uint8_t>(
        static_cast<int>(mutated[length_at]) + delta);
    EXPECT_THROW((void)decode_snapshot(mutated), SnapshotError)
        << "length delta " << delta;
  }
}

TEST(ModelSnapshot, TrailingGarbageFails) {
  std::vector<std::uint8_t> bytes = encode_snapshot(make_model());
  bytes.push_back(0);
  EXPECT_THROW((void)decode_snapshot(bytes), SnapshotError);
}

TEST(ModelSnapshot, GarbageAndEmptyInputsFail) {
  EXPECT_THROW((void)decode_snapshot(std::vector<std::uint8_t>{}),
               SnapshotError);
  std::vector<std::uint8_t> garbage(64);
  const CounterRng rng(0xBAD, 1);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(rng.bits(i));
  }
  EXPECT_THROW((void)decode_snapshot(garbage), SnapshotError);
}

TEST(ModelSnapshot, MissingFileFails) {
  EXPECT_THROW((void)load_snapshot(testing::TempDir() + "does_not_exist.bin"),
               SnapshotError);
}

TEST(ModelSnapshot, InjectedCorruptionOnLoadIsCaught) {
  const Model original = make_model();
  const std::string path = testing::TempDir() + "loom_snapshot_corrupt.bin";
  save_snapshot(original, path);

  FaultPlan plan;
  plan.seed = 9;
  plan.snapshot_corrupt_prob = 1.0;
  FaultInjector injector(plan);
  EXPECT_THROW((void)load_snapshot(path, &injector), SnapshotError);
  EXPECT_EQ(injector.snapshot_corruptions_injected(), 1u);

  // The same injector seed flips the same bit: the failure replays.
  FaultInjector replay(plan);
  EXPECT_THROW((void)load_snapshot(path, &replay), SnapshotError);
  EXPECT_EQ(replay.snapshot_corruptions_injected(), 1u);

  // With the site disabled the very same file loads fine.
  const std::shared_ptr<const Model> loaded = load_snapshot(path);
  expect_equal_models(original, *loaded);
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

}  // namespace
}  // namespace loom::serve
