// Functional DPNN engine: exact outputs vs the golden model and cycle
// agreement with the analytic DPNN cycle model; plus the headline
// cross-architecture check — the bit-parallel and bit-serial functional
// engines compute identical results while spending cycles in the ratio the
// paper predicts.
#include <gtest/gtest.h>

#include "sim/dpnn_functional.hpp"
#include "sim/dpnn_sim.hpp"
#include "sim/functional.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

struct Case {
  nn::Network net;
  nn::Tensor input;
  nn::Tensor weights;
};

Case conv_case(int groups = 1) {
  nn::Network net("t", nn::Shape3{8, 10, 10});
  net.add_conv("c", 16, 3, 1, 1, groups).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "t";
  p.conv_act = {7};
  p.conv_weight = 8;
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 7, .alpha = 2.0, .is_signed = false};
  nn::SyntheticSpec wsp{.precision = 8, .alpha = 2.0, .is_signed = true};
  Case c{std::move(net), {}, {}};
  c.input = nn::make_activation_tensor(c.net.layer(0).in, act, 1, 1);
  c.weights = nn::make_weight_tensor(c.net.layer(0).weight_count(), wsp, 2, 2);
  return c;
}

TEST(DpnnFunctional, ConvMatchesGolden) {
  Case c = conv_case();
  FunctionalDpnnEngine engine;
  const auto run = engine.run_conv(c.net.layer(0), c.input, c.weights, 16);
  const nn::WideTensor golden =
      nn::conv_forward(c.input, c.weights, c.net.layer(0));
  for (std::int64_t i = 0; i < golden.elements(); ++i) {
    ASSERT_EQ(run.wide.flat(i), golden.flat(i)) << i;
  }
}

TEST(DpnnFunctional, GroupedConvMatchesGolden) {
  Case c = conv_case(/*groups=*/2);
  FunctionalDpnnEngine engine;
  const auto run = engine.run_conv(c.net.layer(0), c.input, c.weights, 16);
  const nn::WideTensor golden =
      nn::conv_forward(c.input, c.weights, c.net.layer(0));
  for (std::int64_t i = 0; i < golden.elements(); ++i) {
    ASSERT_EQ(run.wide.flat(i), golden.flat(i)) << i;
  }
}

TEST(DpnnFunctional, ConvCyclesMatchAnalyticModel) {
  Case c = conv_case();
  FunctionalDpnnEngine engine;
  const auto fun = engine.run_conv(c.net.layer(0), c.input, c.weights, 16);

  quant::PrecisionProfile p;
  p.network = "t";
  p.conv_act = {7};
  p.conv_weight = 8;
  NetworkWorkload wl(c.net, p);
  DpnnSimulator sim(arch::DpnnConfig{}, SimOptions{});
  const auto analytic = sim.run(wl);
  EXPECT_NEAR(static_cast<double>(fun.cycles),
              static_cast<double>(analytic.layers[0].compute_cycles), 8.0);
}

TEST(DpnnFunctional, FcMatchesGoldenAndModel) {
  nn::Network net("t", nn::Shape3{64, 1, 1});
  net.add_fc("f", 40);
  quant::PrecisionProfile p;
  p.network = "t";
  p.fc_weight = {8};
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 9, .alpha = 2.0, .is_signed = false};
  nn::SyntheticSpec wsp{.precision = 8, .alpha = 2.0, .is_signed = true};
  const nn::Tensor input = nn::make_activation_tensor(net.layer(0).in, act, 3, 3);
  const nn::Tensor weights =
      nn::make_weight_tensor(net.layer(0).weight_count(), wsp, 4, 4);

  FunctionalDpnnEngine engine;
  const auto run = engine.run_fc(net.layer(0), input, weights, 16);
  const nn::WideTensor golden = nn::fc_forward(input, weights, net.layer(0));
  for (std::int64_t i = 0; i < golden.elements(); ++i) {
    ASSERT_EQ(run.wide.flat(i), golden.flat(i)) << i;
  }
  // ceil(64/16) x ceil(40/8) = 4 x 5 = 20 cycles.
  EXPECT_EQ(run.cycles, 20u);
}

TEST(CrossEngine, SerialAndParallelEnginesAgreeBitExactly) {
  // The paper's equivalence claim, executed end to end on conv -> pool -> fc:
  // both datapaths produce the same integers as the bit-parallel reference
  // chain; Loom spends ~Pa*Pw/256 of the baseline's cycles scaled by the
  // compute-bandwidth ratio of the two functional configs.
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

  FunctionalDpnnEngine dpnn;  // 16 lanes x 8 filters
  FunctionalLoomEngine lm(FunctionalOptions{
      .rows = 8, .cols = 16, .dynamic_act_precision = false});
  const FunctionalNetworkRun rd = dpnn.run_network(net, input, weights);
  const FunctionalNetworkRun rl = lm.run_network(net, input, weights);
  ASSERT_EQ(rd.layers.size(), 2u);
  ASSERT_EQ(rl.layers.size(), 2u);

  // Reference chain: every layer's accumulators, byte for byte.
  const nn::WideTensor c = nn::conv_forward(input, weights[0], net.layer(0));
  nn::Tensor x = nn::requantize(c, nn::choose_requant_shift(c, 16), 16, true);
  x = nn::pool_forward(x, net.layer(1));
  const nn::WideTensor f = nn::fc_forward(x, weights[1], net.layer(2));
  EXPECT_EQ(rd.layers[0].wide, c);
  EXPECT_EQ(rl.layers[0].wide, c);
  EXPECT_EQ(rd.layers[1].wide, f);
  EXPECT_EQ(rl.layers[1].wide, f);
  EXPECT_EQ(rd.output, rl.output);
  EXPECT_EQ(rd.output,
            nn::requantize(f, nn::choose_requant_shift(f, 16), 16, true));

  // DPNN cycles follow its schedule: conv 2 filter blocks x 100 windows x
  // ceil(72/16) = 5 chunks = 1000; fc 2 filter blocks x ceil(400/16) = 25
  // chunks = 50.
  EXPECT_EQ(rd.layers[0].cycles, 1000u);
  EXPECT_EQ(rd.layers[1].cycles, 50u);
  EXPECT_EQ(rd.total_cycles, 1050u);
  // The 8x16 Loom grid spends 2 x ceil(100/16) x 5 chunks x Pa(7) x Pw(8) =
  // 3920 conv cycles (it has 16-window parallelism but 1/16 of the per-lane
  // bit bandwidth -> ratio 3.92 = 7*8*[112/100]/16).
  const double ratio = static_cast<double>(rl.layers[0].cycles) /
                       static_cast<double>(rd.layers[0].cycles);
  EXPECT_NEAR(ratio, 3.92, 0.05);
}

TEST(SparsityExtension, PlaneSkippingEstimateIsFasterAndBounded) {
  auto wl = prepare_network("alexnet", quant::AccuracyTarget::k100);
  auto dpnn = sim::make_dpnn_simulator(arch::DpnnConfig{}, SimOptions{});
  const auto base = dpnn->run(*wl);

  arch::LoomConfig plain;
  arch::LoomConfig grouped;
  grouped.per_group_weights = true;
  arch::LoomConfig sparse;
  sparse.sparse_weight_skipping = true;

  auto s_plain = sim::make_loom_simulator(plain, SimOptions{})->run(*wl);
  auto s_grouped = sim::make_loom_simulator(grouped, SimOptions{})->run(*wl);
  auto s_sparse = sim::make_loom_simulator(sparse, SimOptions{})->run(*wl);

  const auto all = RunResult::Filter::kAll;
  // Plane skipping subsumes leading-zero trimming: strictly faster than
  // profile-only and on par or better than the per-group precision
  // estimate (within a small margin — a rare group whose magnitudes OR to
  // a dense pattern can cost one extra sign pass).
  EXPECT_LT(s_sparse.cycles(all), s_plain.cycles(all));
  EXPECT_LE(static_cast<double>(s_sparse.cycles(all)),
            static_cast<double>(s_grouped.cycles(all)) * 1.05);
}

TEST(SparsityExtension, EssentialPlanesBelowGroupPrecision) {
  auto wl = prepare_network("alexnet", quant::AccuracyTarget::k100);
  const auto convs = wl->network().conv_indices();
  for (const auto li : convs) {
    const double essential = wl->layer(li).essential_weight_planes();
    const double group = wl->layer(li).effective_weight_precision();
    // Interior-zero skipping beats leading-zero trimming up to the sign
    // pass (a group {-8, 7} needs 4 signed bits but 4+1 essential planes).
    EXPECT_LE(essential, group + 1.0) << li;
    EXPECT_GE(essential, 1.0);
  }
}

}  // namespace
}  // namespace loom::sim
