// Functional engine: whole layers and networks executed through the
// bit-serial datapath must match the bit-parallel golden model exactly,
// and the wall-clock cycles must agree with the analytic cycle model.
#include <gtest/gtest.h>

#include "common/cpuid.hpp"
#include "common/error.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "sim/dpnn_sim.hpp"
#include "sim/functional.hpp"
#include "sim/loom_sim.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

struct SmallNet {
  nn::Network net;
  std::vector<nn::Tensor> weights;
  nn::Tensor input;
};

SmallNet make_small_net() {
  nn::Network net("tiny", nn::Shape3{4, 12, 12});
  net.add_conv("c1", 8, 3, 1, 1).precision_group = 0;
  net.add_pool("p1", nn::PoolKind::kMax, 2, 2);
  net.add_conv("c2", 16, 3, 1, 1).precision_group = 1;
  net.add_fc("f1", 10);
  quant::PrecisionProfile p;
  p.network = "tiny";
  p.conv_act = {7, 6};
  p.conv_weight = 8;
  p.fc_weight = {7};
  quant::apply_profile(net, p);

  SmallNet s{std::move(net), {}, nn::Tensor{}};
  // High alpha concentrates values so per-group dynamic detection has
  // something to trim (overlapping windows share values, so a group sees
  // ~50 distinct draws, not 256).
  nn::SyntheticSpec act{.precision = 7, .alpha = 40.0, .is_signed = false};
  s.input = nn::make_activation_tensor(s.net.layer(0).in, act, 1, 1);
  std::uint64_t stream = 100;
  for (const auto& l : s.net.layers()) {
    if (!l.has_weights()) continue;
    nn::SyntheticSpec w{.precision = l.weight_precision, .alpha = 2.0,
                        .is_signed = true};
    s.weights.push_back(nn::make_weight_tensor(l.weight_count(), w, 2, stream++));
  }
  return s;
}

TEST(Functional, ConvLayerMatchesGoldenModel) {
  SmallNet s = make_small_net();
  FunctionalLoomEngine engine(FunctionalOptions{.rows = 8, .cols = 16});
  const auto run = engine.run_conv(s.net.layer(0), s.input, s.weights[0], 16);
  const nn::WideTensor golden =
      nn::conv_forward(s.input, s.weights[0], s.net.layer(0));
  ASSERT_EQ(run.wide.elements(), golden.elements());
  for (std::int64_t i = 0; i < golden.elements(); ++i) {
    ASSERT_EQ(run.wide.flat(i), golden.flat(i)) << i;
  }
}

TEST(Functional, ConvMatchesGoldenWithDynamicPrecisionOff) {
  SmallNet s = make_small_net();
  FunctionalLoomEngine engine(
      FunctionalOptions{.rows = 4, .cols = 8, .dynamic_act_precision = false});
  const auto run = engine.run_conv(s.net.layer(0), s.input, s.weights[0], 16);
  const nn::WideTensor golden =
      nn::conv_forward(s.input, s.weights[0], s.net.layer(0));
  for (std::int64_t i = 0; i < golden.elements(); ++i) {
    ASSERT_EQ(run.wide.flat(i), golden.flat(i)) << i;
  }
}

TEST(Functional, DynamicPrecisionSavesCyclesLosslessly) {
  SmallNet s = make_small_net();
  FunctionalLoomEngine dyn(FunctionalOptions{.rows = 8, .cols = 16});
  FunctionalLoomEngine stat(
      FunctionalOptions{.rows = 8, .cols = 16, .dynamic_act_precision = false});
  const auto run_dyn = dyn.run_conv(s.net.layer(0), s.input, s.weights[0], 16);
  const auto run_stat = stat.run_conv(s.net.layer(0), s.input, s.weights[0], 16);
  EXPECT_LT(run_dyn.cycles, run_stat.cycles);
  for (std::int64_t i = 0; i < run_stat.wide.elements(); ++i) {
    ASSERT_EQ(run_dyn.wide.flat(i), run_stat.wide.flat(i)) << i;
  }
  EXPECT_LT(run_dyn.mean_streamed_precision, 7.0);
}

TEST(Functional, ByteWideInputReportsOneActivationPlane) {
  // Plane products per K-block are activation planes x weight planes. At
  // Pa 16 every gemm tier splits the activation into a low byte and a high
  // part; a slab whose values all fit a byte runs the low plane alone,
  // exactly as a Pa 8 profile does. Inner 144 is deep enough for the AMX
  // tier's byte planes.
  nn::Layer layer = nn::make_conv("planes", nn::Shape3{16, 6, 6}, 4, 3, 1, 1);
  layer.act_precision = kBasePrecision;
  layer.weight_precision = 11;
  nn::Layer byte_layer = layer;
  byte_layer.act_precision = 8;
  const nn::Shape shape{16, 6, 6};
  const nn::Tensor narrow_in(shape, Value{255});
  const nn::Tensor wide_in(shape, Value{256});
  const nn::Tensor weights(nn::Shape{layer.weight_count()}, Value{-3});
  FunctionalLoomEngine engine(FunctionalOptions{.jobs = 1});
  const auto narrow = engine.run_conv(layer, narrow_in, weights, 16);
  const auto wide = engine.run_conv(layer, wide_in, weights, 16);
  const auto byte = engine.run_conv(byte_layer, narrow_in, weights, 16);
  EXPECT_EQ(narrow.wide, byte.wide);
  if (narrow.backend == "scalar") {  // the bit-serial oracle has no planes
    EXPECT_EQ(narrow.mean_plane_products, 0.0);
    return;
  }
  EXPECT_GT(byte.mean_plane_products, 0.0);
  EXPECT_EQ(narrow.mean_plane_products, byte.mean_plane_products);
  EXPECT_EQ(wide.mean_plane_products, 2 * narrow.mean_plane_products);
  // FC layers run no plane kernel.
  const nn::Layer fc = nn::make_fc("fc", nn::Shape3{8, 1, 1}, 3);
  const auto fc_run = engine.run_fc(fc, nn::Tensor(nn::Shape{8}, Value{5}),
                                    nn::Tensor(nn::Shape{24}, Value{1}), 16);
  EXPECT_EQ(fc_run.mean_plane_products, 0.0);
}

TEST(Functional, ShallowConvRunsTheInt16Kernel) {
  // At the AMX tier a conv of at least three 64-deep K-steps runs on byte
  // planes (two weight planes at Pw 11) and a shallower one on the int16
  // kernel (one plane): one or two K-steps do not cover a tile block's
  // fixed cost. Below the AMX tier both run int16.
  nn::Layer deep = nn::make_conv("deep", nn::Shape3{16, 6, 6}, 4, 3, 1, 1);
  nn::Layer shallow = nn::make_conv("shallow", nn::Shape3{14, 6, 6}, 4, 3, 1, 1);
  ASSERT_EQ(deep.inner_length(), 144);     // 3 K-steps
  ASSERT_EQ(shallow.inner_length(), 126);  // 2 K-steps
  FunctionalLoomEngine engine(FunctionalOptions{.jobs = 1});
  const auto run = [&](nn::Layer& layer) {
    layer.act_precision = 8;
    layer.weight_precision = 11;
    const nn::Tensor in(nn::Shape{layer.in.c, 6, 6}, Value{200});
    const nn::Tensor w(nn::Shape{layer.weight_count()}, Value{-700});
    return engine.run_conv(layer, in, w, 16);
  };
  const auto deep_run = run(deep);
  const auto shallow_run = run(shallow);
  if (deep_run.backend == "scalar") return;  // the oracle has no planes
  EXPECT_EQ(shallow_run.mean_plane_products, 1.0);
  EXPECT_EQ(deep_run.mean_plane_products, common::have_amx() ? 2.0 : 1.0);
}

TEST(Functional, FcLayerMatchesGoldenModel) {
  SmallNet s = make_small_net();
  // Run the net up to the FC input using the golden path.
  nn::Tensor x = s.input;
  const nn::WideTensor c1 = nn::conv_forward(x, s.weights[0], s.net.layer(0));
  x = nn::requantize(c1, nn::choose_requant_shift(c1, 6), 6, true);
  x = nn::pool_forward(x, s.net.layer(1));
  const nn::WideTensor c2 = nn::conv_forward(x, s.weights[1], s.net.layer(2));
  x = nn::requantize(c2, nn::choose_requant_shift(c2, 16), 16, true);

  FunctionalLoomEngine engine(FunctionalOptions{});
  const auto run = engine.run_fc(s.net.layer(3), x, s.weights[2], 16);
  const nn::WideTensor golden = nn::fc_forward(x, s.weights[2], s.net.layer(3));
  for (std::int64_t i = 0; i < golden.elements(); ++i) {
    ASSERT_EQ(run.wide.flat(i), golden.flat(i)) << i;
  }
}

TEST(Functional, WholeNetworkMatchesGoldenPipeline) {
  SmallNet s = make_small_net();
  FunctionalLoomEngine engine(FunctionalOptions{.rows = 8, .cols = 8});
  const auto run =
      engine.run_network(s.net, s.input, WeightSet(s.net, s.weights));
  ASSERT_EQ(run.layers.size(), 3u);
  EXPECT_EQ(run.output.elements(), 10);
  EXPECT_GT(run.total_cycles, 0u);

  // Golden pipeline with identical requantization decisions.
  nn::Tensor x = s.input;
  const nn::WideTensor c1 = nn::conv_forward(x, s.weights[0], s.net.layer(0));
  ASSERT_EQ(run.layers[0].out_bits, 6);  // consumer c2's profile Pa
  x = nn::requantize(c1, run.layers[0].requant_shift, 6, true);
  x = nn::pool_forward(x, s.net.layer(1));
  const nn::WideTensor c2 = nn::conv_forward(x, s.weights[1], s.net.layer(2));
  x = nn::requantize(c2, run.layers[1].requant_shift, 16, true);
  const nn::WideTensor f1 = nn::fc_forward(x, s.weights[2], s.net.layer(3));
  const nn::Tensor golden_out =
      nn::requantize(f1, run.layers[2].requant_shift, 16, true);
  for (std::int64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(run.output.flat(i), golden_out.flat(i)) << i;
  }
}

TEST(Functional, LayerWallClockCoversEveryPhase) {
  // wall_ms times the whole layer call, so at jobs = 1, where pack + kernel
  // is the kernel call's wall clock, it is at least the phases' sum; in
  // run_network the pooling after c1 adds to both its epilogue and its wall
  // clock.
  SmallNet s = make_small_net();
  FunctionalLoomEngine engine(
      FunctionalOptions{.rows = 8, .cols = 8, .jobs = 1});
  const auto net_run =
      engine.run_network(s.net, s.input, WeightSet(s.net, s.weights));
  std::vector<FunctionalLayerRun> runs = net_run.layers;
  runs.push_back(engine.run_conv(s.net.layer(0), s.input, s.weights[0], 8));
  runs.push_back(engine.run_fc(s.net.layer(3), net_run.layers[1].output,
                               s.weights[2], 16));
  for (const FunctionalLayerRun& run : runs) {
    const LayerPhases& p = run.phases;
    EXPECT_GT(p.wall_ms, 0.0) << run.name;
    EXPECT_GE(p.wall_ms, p.pack_ms + p.kernel_ms + p.epilogue_ms) << run.name;
  }
}

TEST(Functional, CyclesAgreeWithAnalyticModel) {
  // The chunk-counting simulator and the actually-driven datapath must
  // report the same cycles in static mode (up to the pipeline-fill
  // constant) on a 16x16-grid-compatible layer.
  nn::Network net("tiny", nn::Shape3{8, 16, 16});
  net.add_conv("c", 16, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "tiny";
  p.conv_act = {7};
  p.conv_weight = 9;
  quant::apply_profile(net, p);

  nn::SyntheticSpec act{.precision = 7, .alpha = 2.0, .is_signed = false};
  nn::SyntheticSpec wsp{.precision = 9, .alpha = 2.0, .is_signed = true};
  const nn::Tensor input = nn::make_activation_tensor(net.layer(0).in, act, 1, 1);
  const nn::Tensor weights =
      nn::make_weight_tensor(net.layer(0).weight_count(), wsp, 2, 2);

  FunctionalLoomEngine engine(
      FunctionalOptions{.rows = 16, .cols = 16, .dynamic_act_precision = false});
  const auto fun = engine.run_conv(net.layer(0), input, weights, 16);

  arch::LoomConfig cfg;
  cfg.equiv_macs = 16;  // rows = 16 like the functional grid
  cfg.dynamic_act_precision = false;
  LoomSimulator sim(cfg, SimOptions{});
  NetworkWorkload wl(std::move(net), p);
  const auto analytic = sim.run(wl);
  EXPECT_NEAR(static_cast<double>(fun.cycles),
              static_cast<double>(analytic.layers[0].compute_cycles), 16.0);
}

TEST(Functional, GroupedConvolutionSupported) {
  nn::Network net("g", nn::Shape3{4, 6, 6});
  net.add_conv("c", 8, 3, 1, 1, /*groups=*/2).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "g";
  p.conv_act = {6};
  p.conv_weight = 7;
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 6, .alpha = 1.5, .is_signed = false};
  nn::SyntheticSpec wsp{.precision = 7, .alpha = 1.5, .is_signed = true};
  const nn::Tensor input = nn::make_activation_tensor(net.layer(0).in, act, 3, 3);
  const nn::Tensor weights =
      nn::make_weight_tensor(net.layer(0).weight_count(), wsp, 4, 4);

  FunctionalLoomEngine engine(FunctionalOptions{.rows = 4, .cols = 8});
  const auto run = engine.run_conv(net.layer(0), input, weights, 16);
  const nn::WideTensor golden = nn::conv_forward(input, weights, net.layer(0));
  for (std::int64_t i = 0; i < golden.elements(); ++i) {
    ASSERT_EQ(run.wide.flat(i), golden.flat(i)) << i;
  }
}

TEST(Functional, LayerCallsRejectMismatchedTensors) {
  // The kernels index inputs and weights with the layer's geometry, so
  // every entry rejects a tensor that does not match it.
  SmallNet s = make_small_net();
  FunctionalLoomEngine engine(FunctionalOptions{.rows = 8, .cols = 8});
  const nn::Tensor short_weights(nn::Shape{s.weights[0].elements() - 1});
  EXPECT_THROW((void)engine.run_conv(s.net.layer(0), s.input, short_weights, 16),
               ConfigError);
  const nn::Tensor wrong_input(nn::Shape{4, 12, 11});
  EXPECT_THROW((void)engine.run_conv(s.net.layer(0), wrong_input, s.weights[0], 16),
               ConfigError);
  EXPECT_THROW((void)engine.run_fc(s.net.layer(3), wrong_input, s.weights[2], 16),
               ConfigError);
  std::vector<nn::Tensor> truncated = s.weights;
  truncated[2] = nn::Tensor(nn::Shape{truncated[2].elements() / 2});
  EXPECT_THROW((void)WeightSet(s.net, truncated), ConfigError);
}

TEST(Functional, GoogLeNetIsAnalyticOnly) {
  // GoogLeNet's inception branches are flattened into one layer list, so
  // its layers do not chain (inception_3a/3x3_reduce reads the 192-channel
  // module input, not its 64-channel predecessor): no weight set can be
  // built for it, so it never reaches a kernel.
  nn::Network net = nn::zoo::make("googlenet");
  quant::apply_profile(net, quant::profile_for("googlenet",
                                               quant::AccuracyTarget::k100));
  ASSERT_LT(net.first_chain_break(), net.size());
  std::vector<nn::Tensor> weights;
  for (const nn::Layer& l : net.layers()) {
    if (l.has_weights()) weights.emplace_back(nn::Shape{l.weight_count()});
  }
  EXPECT_THROW((void)WeightSet(net, std::move(weights)), ConfigError);
}

TEST(Functional, LinearZooNetworksChain) {
  for (const char* name : {"alexnet", "nin", "vggs", "vggm", "vgg19"}) {
    const nn::Network net = nn::zoo::make(name);
    EXPECT_EQ(net.first_chain_break(), net.size()) << name;
    EXPECT_EQ(net.execution_error(), "") << name;
  }
}

TEST(CrossEngine, SerialAndParallelEnginesAgreeBitExactly) {
  // The paper's equivalence claim, executed end to end on conv -> pool -> fc:
  // the bit-serial engine produces the same integers as the bit-parallel
  // reference chain, and spends ~Pa*Pw/256 of the DPNN baseline's cycles
  // scaled by the compute-bandwidth ratio of the two configs.
  nn::Network net("t", nn::Shape3{8, 10, 10});
  net.add_conv("c", 16, 3, 1, 1).precision_group = 0;
  net.add_pool("p", nn::PoolKind::kMax, 2, 2);
  net.add_fc("f", 10);
  quant::PrecisionProfile p;
  p.network = "t";
  p.conv_act = {7};
  p.conv_weight = 8;
  p.fc_weight = {8};
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 7, .alpha = 2.0, .is_signed = false};
  nn::SyntheticSpec wsp{.precision = 8, .alpha = 2.0, .is_signed = true};
  const nn::Tensor input = nn::make_activation_tensor(net.layer(0).in, act, 1, 1);
  const std::vector<nn::Tensor> weights{
      nn::make_weight_tensor(net.layer(0).weight_count(), wsp, 2, 2),
      nn::make_weight_tensor(net.layer(2).weight_count(), wsp, 2, 3)};

  FunctionalLoomEngine lm(FunctionalOptions{
      .rows = 8, .cols = 16, .dynamic_act_precision = false});
  const FunctionalNetworkRun rl =
      lm.run_network(net, input, WeightSet(net, weights));
  ASSERT_EQ(rl.layers.size(), 2u);

  // Reference chain: every layer's accumulators, byte for byte.
  const nn::WideTensor c = nn::conv_forward(input, weights[0], net.layer(0));
  nn::Tensor x = nn::requantize(c, nn::choose_requant_shift(c, 16), 16, true);
  x = nn::pool_forward(x, net.layer(1));
  const nn::WideTensor f = nn::fc_forward(x, weights[1], net.layer(2));
  EXPECT_EQ(rl.layers[0].wide, c);
  EXPECT_EQ(rl.layers[1].wide, f);
  EXPECT_EQ(rl.output,
            nn::requantize(f, nn::choose_requant_shift(f, 16), 16, true));

  // The analytic DPNN baseline (8 IP units x 16 lanes) follows its schedule
  // plus the pipeline fill: conv 2 filter blocks x 100 windows x
  // ceil(72/16) = 5 chunks = 1000; fc 2 filter blocks x ceil(400/16) = 25
  // chunks = 50.
  NetworkWorkload wl(net, p);
  const RunResult dpnn = DpnnSimulator(arch::DpnnConfig{}, SimOptions{}).run(wl);
  ASSERT_EQ(dpnn.layers.size(), 2u);
  const std::uint64_t dpnn_conv =
      dpnn.layers[0].compute_cycles - kDpnnPipelineFill;
  EXPECT_EQ(dpnn_conv, 1000u);
  EXPECT_EQ(dpnn.layers[1].compute_cycles - kDpnnPipelineFill, 50u);
  // The 8x16 Loom grid spends 2 x ceil(100/16) x 5 chunks x Pa(7) x Pw(8) =
  // 3920 conv cycles (it has 16-window parallelism but 1/16 of the per-lane
  // bit bandwidth -> ratio 3.92 = 7*8*[112/100]/16).
  const double ratio = static_cast<double>(rl.layers[0].cycles) /
                       static_cast<double>(dpnn_conv);
  EXPECT_NEAR(ratio, 3.92, 0.05);
}

}  // namespace
}  // namespace loom::sim
