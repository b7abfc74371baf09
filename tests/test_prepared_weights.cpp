// Prepared conv weights (sim::WeightSet, built once against a model's
// network) against the flat-tensor layer calls that prepare per call: every
// conv layer of NiN and AlexNet, plus shallow and deep toy convs, must give
// byte-identical accumulators, cycles and streaming statistics both ways,
// layer by layer and through whole networks. The set's one constructor
// also holds the weights-fit-network check. The binary also reruns at the
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
/// weights and from its flat tensor prepared on the spot: through
/// GemmEngine (accumulators and every ConvStats field but the pack time)
/// and through the engine's flat-tensor run_conv (accumulators and cycles).
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
    Wide peak_prepared = 0;
    Wide peak_flat = 0;
    const ConvStats a =
        gemm.run_conv_batch(layer, std::span(&in, 1), *prepared, spec,
                            std::span(&to_prepared, 1), std::span(&peak_prepared, 1));
    const ConvStats b = gemm.run_conv_batch(
        layer, std::span(&in, 1),
        prepare_conv(layer, m.weights[index], layer.weight_precision), spec,
        std::span(&to_flat, 1), std::span(&peak_flat, 1));
    EXPECT_EQ(from_prepared, from_flat);
    EXPECT_EQ(peak_prepared, peak_flat);
    expect_stats_eq(a, b);

    const FunctionalLayerRun run =
        engine.run_conv(layer, input, m.weights[index], kBasePrecision);
    EXPECT_EQ(run.wide, from_prepared);
    EXPECT_EQ(run.cycles, a.cycles);
  }
  EXPECT_GT(convs, 0);
}

void expect_layers_eq(const FunctionalBatchLayerRun& a,
                      const FunctionalBatchLayerRun& b) {
  SCOPED_TRACE(a.name);
  EXPECT_EQ(a.wides, b.wides);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.requant_shifts, b.requant_shifts);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.mean_streamed_precision, b.mean_streamed_precision);
  EXPECT_EQ(a.mean_plane_products, b.mean_plane_products);
}

/// The whole network from the prepared set against the same layers called
/// one by one on flat tensors, a batch of two: every layer's accumulators,
/// outputs, shifts, cycles and streaming means, and the dispatcher's
/// streamed-bit counters; then the solo run against the batch's first
/// request.
void check_network(const serve::Model& m) {
  SCOPED_TRACE(m.name);
  const std::vector<nn::Tensor> inputs{m.make_input(3, 0), m.make_input(3, 1)};
  FunctionalLoomEngine prepared(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  FunctionalLoomEngine flat(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  const FunctionalBatchNetworkRun run =
      prepared.run_network_batch(m.net, inputs, m.weights);
  std::vector<nn::Tensor> current = inputs;
  std::size_t wi = 0;
  for (std::size_t i = 0; i < m.net.size(); ++i) {
    const nn::Layer& layer = m.net.layer(i);
    if (!layer.has_weights()) {
      for (nn::Tensor& t : current) t = pool_activations(t, layer);
      continue;
    }
    ASSERT_LT(wi, run.layers.size());
    const int out_bits = m.net.output_precision(i);
    FunctionalBatchLayerRun called =
        layer.kind == nn::LayerKind::kConv
            ? flat.run_conv_batch(layer, current, m.weights[wi], out_bits)
            : flat.run_fc_batch(layer, current, m.weights[wi], out_bits);
    expect_layers_eq(run.layers[wi], called);
    current = std::move(called.outputs);
    ++wi;
  }
  EXPECT_EQ(wi, run.layers.size());
  EXPECT_EQ(run.outputs, current);

  const arch::Dispatcher& da = prepared.dispatcher();
  const arch::Dispatcher& db = flat.dispatcher();
  EXPECT_EQ(da.activation_bits_streamed(), db.activation_bits_streamed());
  EXPECT_EQ(da.weight_bits_streamed(), db.weight_bits_streamed());
  EXPECT_EQ(da.detector().invocations(), db.detector().invocations());
  EXPECT_EQ(da.detector().values_inspected(),
            db.detector().values_inspected());

  const FunctionalNetworkRun solo =
      prepared.run_network(m.net, inputs[0], m.weights);
  ASSERT_EQ(solo.layers.size(), run.layers.size());
  for (std::size_t i = 0; i < solo.layers.size(); ++i) {
    EXPECT_EQ(solo.layers[i].wide, run.layers[i].wides[0])
        << solo.layers[i].name;
  }
  EXPECT_EQ(solo.output, run.outputs[0]);
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
  const WeightSet rebuilt(
      m->net, std::vector<nn::Tensor>(m->weights.begin(), m->weights.end()));
  ASSERT_NE(rebuilt.prepared(0), nullptr);
  EXPECT_NE(rebuilt.prepared(0), m->weights.prepared(0));
  EXPECT_TRUE(*rebuilt.prepared(0) == *m->weights.prepared(0));
  EXPECT_TRUE(rebuilt == m->weights);
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
  const WeightSet rebuilt(
      net, std::vector<nn::Tensor>(m->weights.begin(), m->weights.end()));
  EXPECT_NO_THROW((void)engine.run_network(net, input, rebuilt));
}

/// The ConfigError message of building a set from `tensors` for `net`, or
/// "" when it builds.
std::string construction_error(const nn::Network& net,
                               std::vector<nn::Tensor> tensors) {
  try {
    (void)WeightSet(net, std::move(tensors));
  } catch (const ConfigError& e) {
    return e.what();
  }
  return {};
}

TEST(PreparedWeights, ConstructorRejectsWeightsThatDoNotFitNamingTheLayer) {
  // conv c1 -> pool p1 -> fc logits: every tensor-count or tensor-size
  // fault is a ConfigError from the one fit check, naming the layer.
  nn::Network net("fit", nn::Shape3{6, 12, 12});
  net.add_conv("c1", 12, 3, 1, 1).precision_group = 0;
  net.add_pool("p1", nn::PoolKind::kMax, 2, 2);
  net.add_fc("logits", 9);
  quant::PrecisionProfile p;
  p.network = "fit";
  p.conv_act = {8};
  p.conv_weight = 9;
  p.fc_weight = {8};
  quant::apply_profile(net, p);
  const std::vector<nn::Tensor> fit{
      nn::Tensor(nn::Shape{net.layer(0).weight_count()}),
      nn::Tensor(nn::Shape{net.layer(2).weight_count()})};
  ASSERT_EQ(construction_error(net, fit), "");

  const auto expect_names = [&](std::vector<nn::Tensor> tensors,
                                const std::string& layer) {
    const std::string what = construction_error(net, std::move(tensors));
    EXPECT_NE(what.find("'" + layer + "'"), std::string::npos)
        << layer << ": \"" << what << "\"";
  };
  expect_names({fit[0]}, "logits");                     // one tensor too few
  expect_names({fit[0], fit[1], fit[1]}, "logits");     // one tensor too many
  expect_names({nn::Tensor(nn::Shape{fit[0].elements() - 1}), fit[1]}, "c1");
  expect_names({fit[0], nn::Tensor(nn::Shape{fit[1].elements() - 1})},
               "logits");
}

}  // namespace
}  // namespace loom::sim
