// Prepared conv weights (sim::WeightSet, built once when a model is
// registered) against the flat-tensor calls that prepare on the spot: every
// conv layer of NiN and AlexNet, plus shallow and deep toy convs, must give
// byte-identical accumulators, cycles and streaming statistics both ways,
// layer by layer and through whole networks. The binary also reruns at the
// scalar, avx2 and avx512 tiers, so on an AMX host both operand layouts
// (byte planes and int16 pairs) are covered.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "nn/synthetic.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "serve/model_registry.hpp"
#include "sim/functional.hpp"
#include "sim/gemm_engine.hpp"

namespace loom::sim {
namespace {

std::shared_ptr<const serve::Model> register_zoo(serve::ModelRegistry& registry,
                                                 const std::string& name) {
  nn::Network net = nn::zoo::make(name);
  const quant::PrecisionProfile& p =
      quant::profile_for(name, quant::AccuracyTarget::k100);
  quant::apply_profile(net, p);
  return registry.add_synthetic(name, std::move(net), p, /*seed=*/11);
}

/// A one-conv model: `in` -> `filters` kernel x kernel filters, pad 1,
/// `groups` groups, profile Pa / Pw.
std::shared_ptr<const serve::Model> register_toy(serve::ModelRegistry& registry,
                                                 const std::string& name,
                                                 nn::Shape3 in, int filters,
                                                 int kernel, int groups, int pa,
                                                 int pw) {
  nn::Network net(name, in);
  net.add_conv("c", filters, kernel, 1, 1, groups).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = name;
  p.conv_act = {pa};
  p.conv_weight = pw;
  quant::apply_profile(net, p);
  return registry.add_synthetic(name, std::move(net), p, /*seed=*/5);
}

/// Heavy-tailed activations at the layer's Pa, so slabs of Pa above 8 need
/// the high byte.
nn::Tensor layer_input(const nn::Layer& layer, std::uint64_t stream) {
  const nn::SyntheticSpec spec{.precision = layer.act_precision, .alpha = 1.2,
                               .is_signed = false, .zero_fraction = 0.3};
  return nn::make_activation_tensor(layer.in, spec, 0x77, stream);
}

void expect_stats_eq(const ConvStats& a, const ConvStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.streamed_pa, b.streamed_pa);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.act_bits_streamed, b.act_bits_streamed);
  EXPECT_EQ(a.weight_bits_streamed, b.weight_bits_streamed);
  EXPECT_EQ(a.detect_invocations, b.detect_invocations);
  EXPECT_EQ(a.detect_values, b.detect_values);
  EXPECT_EQ(a.plane_products, b.plane_products);
  EXPECT_EQ(a.slabs, b.slabs);
}

/// Every conv layer of `m`, on its own input, from the model's prepared
/// weights and from its flat tensor: through GemmEngine (accumulators and
/// every ConvStats field but the pack time) and through the engine's
/// flat-tensor run_conv (accumulators and cycles).
void check_layers(const serve::Model& m) {
  GemmEngine gemm(GridOptions{.jobs = 1});
  FunctionalLoomEngine engine(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  std::size_t wi = 0;
  int convs = 0;
  for (const nn::Layer& layer : m.net.layers()) {
    if (!layer.has_weights()) continue;
    const std::size_t index = wi++;
    if (layer.kind != nn::LayerKind::kConv) {
      EXPECT_EQ(m.weights.prepared(index), nullptr) << layer.name;
      continue;
    }
    SCOPED_TRACE(m.name + "/" + layer.name);
    ++convs;
    const PreparedConv* prepared = m.weights.prepared(index);
    ASSERT_NE(prepared, nullptr);
    EXPECT_TRUE(prepared->fits(layer, layer.weight_precision));
    EXPECT_EQ(prepared->layout, conv_layout(layer));
    EXPECT_TRUE(*prepared ==
                prepare_conv(layer, m.weights[index], layer.weight_precision));

    const nn::Tensor input = layer_input(layer, index);
    const nn::Shape out{layer.out.c, layer.out.h, layer.out.w};
    const SliceSpec spec{.act_precision = layer.act_precision,
                         .weight_precision = layer.weight_precision,
                         .dynamic = true};
    const nn::Tensor* in = &input;
    nn::WideTensor from_prepared(out);
    nn::WideTensor from_flat(out);
    nn::WideTensor* to_prepared = &from_prepared;
    nn::WideTensor* to_flat = &from_flat;
    const ConvStats a = gemm.run_conv_batch(
        layer, std::span(&in, 1), *prepared, spec, std::span(&to_prepared, 1));
    const ConvStats b = gemm.run_conv_batch(layer, std::span(&in, 1),
                                            m.weights[index], spec,
                                            std::span(&to_flat, 1));
    EXPECT_EQ(from_prepared, from_flat);
    expect_stats_eq(a, b);

    const FunctionalLayerRun run =
        engine.run_conv(layer, input, m.weights[index], kBasePrecision);
    EXPECT_EQ(run.wide, from_prepared);
    EXPECT_EQ(run.cycles, a.cycles);
  }
  EXPECT_GT(convs, 0);
}

/// The whole network from the prepared set and from its flat tensors, solo
/// and as a batch of two: every layer's accumulators, shifts, cycles and
/// streaming means, and the dispatcher's streamed-bit counters.
void check_network(const serve::Model& m) {
  const std::vector<nn::Tensor> inputs{m.make_input(3, 0), m.make_input(3, 1)};
  FunctionalLoomEngine prepared(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  FunctionalLoomEngine flat(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  const FunctionalNetworkRun a = prepared.run_network(m.net, inputs[0], m.weights);
  const FunctionalNetworkRun b =
      flat.run_network(m.net, inputs[0], m.weights.tensors());
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    SCOPED_TRACE(m.name + "/" + a.layers[i].name);
    EXPECT_EQ(a.layers[i].wide, b.layers[i].wide);
    EXPECT_EQ(a.layers[i].output, b.layers[i].output);
    EXPECT_EQ(a.layers[i].cycles, b.layers[i].cycles);
    EXPECT_EQ(a.layers[i].requant_shift, b.layers[i].requant_shift);
    EXPECT_EQ(a.layers[i].mean_streamed_precision,
              b.layers[i].mean_streamed_precision);
    EXPECT_EQ(a.layers[i].mean_plane_products, b.layers[i].mean_plane_products);
  }
  EXPECT_EQ(a.total_cycles, b.total_cycles);

  const FunctionalBatchNetworkRun ab =
      prepared.run_network_batch(m.net, inputs, m.weights);
  const FunctionalBatchNetworkRun bb =
      flat.run_network_batch(m.net, inputs, m.weights.tensors());
  ASSERT_EQ(ab.layers.size(), bb.layers.size());
  for (std::size_t i = 0; i < ab.layers.size(); ++i) {
    EXPECT_EQ(ab.layers[i].wides, bb.layers[i].wides) << ab.layers[i].name;
    EXPECT_EQ(ab.layers[i].cycles, bb.layers[i].cycles) << ab.layers[i].name;
  }
  EXPECT_EQ(ab.outputs, bb.outputs);

  const arch::Dispatcher& da = prepared.dispatcher();
  const arch::Dispatcher& db = flat.dispatcher();
  EXPECT_EQ(da.activation_bits_streamed(), db.activation_bits_streamed());
  EXPECT_EQ(da.weight_bits_streamed(), db.weight_bits_streamed());
  EXPECT_EQ(da.detector().invocations(), db.detector().invocations());
  EXPECT_EQ(da.detector().values_inspected(),
            db.detector().values_inspected());
}

TEST(PreparedWeights, ZooConvLayersMatchFlatCalls) {
  serve::ModelRegistry registry;
  for (const char* name : {"nin", "alexnet"}) {
    check_layers(*register_zoo(registry, name));
  }
}

TEST(PreparedWeights, ToyConvLayersMatchFlatCalls) {
  // Shallow: inner 72, the int16 layout on every tier; Pa 16 splits the
  // activation into bytes there. Deep: inner 288 and 400, byte planes on
  // the AMX tier, Pa 9 and 16 needing the high byte, Pw 12 and 16 two and
  // three weight planes, grouped filters not a register-block multiple.
  serve::ModelRegistry registry;
  const auto shallow =
      register_toy(registry, "shallow", nn::Shape3{8, 12, 12}, 20, 3, 1, 16, 5);
  const auto deep =
      register_toy(registry, "deep", nn::Shape3{32, 11, 9}, 36, 3, 1, 9, 12);
  const auto deep16 = register_toy(registry, "deep16", nn::Shape3{32, 7, 7},
                                   26, 5, 2, 16, 16);
  ASSERT_LE(shallow->net.layer(0).inner_length(), 128);
  ASSERT_GT(deep->net.layer(0).inner_length(), 128);
  ASSERT_GT(deep16->net.layer(0).inner_length(), 128);
  for (const auto& m : {shallow, deep, deep16}) check_layers(*m);
}

TEST(PreparedWeights, NetworksMatchFlatRuns) {
  serve::ModelRegistry registry;
  for (const char* name : {"nin", "alexnet"}) {
    check_network(*register_zoo(registry, name));
  }
  check_network(*register_toy(registry, "deep", nn::Shape3{32, 11, 9}, 36, 3,
                              1, 9, 12));
}

TEST(PreparedWeights, SetsCompareByTensorsAndShareTheirPlanes) {
  serve::ModelRegistry registry;
  const auto m =
      register_toy(registry, "deep", nn::Shape3{32, 11, 9}, 36, 3, 1, 9, 12);
  const WeightSet flat(std::vector<nn::Tensor>(m->weights.begin(),
                                               m->weights.end()));
  EXPECT_EQ(flat.prepared(0), nullptr);
  EXPECT_TRUE(flat == m->weights);
  const WeightSet copy = m->weights;
  EXPECT_EQ(copy.prepared(0), m->weights.prepared(0));
}

TEST(PreparedWeights, WeightsPreparedForAnotherLayerAreRejected) {
  // The same weight count at another Pw: the prepared planes no longer fit
  // the layer, so the engine refuses them rather than run stale planes.
  serve::ModelRegistry registry;
  const auto m =
      register_toy(registry, "deep", nn::Shape3{32, 11, 9}, 36, 3, 1, 9, 12);
  nn::Network net = m->net;
  net.layers()[0].weight_precision = 11;
  FunctionalLoomEngine engine(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  const nn::Tensor input = m->make_input(1, 0);
  EXPECT_THROW((void)engine.run_network(net, input, m->weights), ConfigError);
  EXPECT_NO_THROW((void)engine.run_network(net, input, m->weights.tensors()));
}

}  // namespace
}  // namespace loom::sim
