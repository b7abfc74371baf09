// Loom cycle model: hand-computed counts in static-precision mode, the
// paper's ideal-speedup laws on divisible geometries, cascading, the
// LM2b/LM4b precision-rounding behaviour, §4.6 group-precision modes and
// the weight-plane sparsity extension.
#include <gtest/gtest.h>

#include "nn/zoo/zoo.hpp"
#include "sim/dpnn_sim.hpp"
#include "sim/loom_sim.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

NetworkWorkload conv_only(int ci, int hw, int co, int pa, int pw, int kernel = 3,
                          int pad = 1) {
  nn::Network net("custom", nn::Shape3{ci, hw, hw});
  net.add_conv("c", co, kernel, 1, pad).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "custom";
  p.conv_act = {pa};
  p.conv_weight = pw;
  quant::apply_profile(net, p);
  return NetworkWorkload(std::move(net), p);
}

NetworkWorkload fc_only(int ci, int co, int pw) {
  nn::Network net("custom", nn::Shape3{ci, 1, 1});
  net.add_fc("f", co);
  quant::PrecisionProfile p;
  p.network = "custom";
  p.fc_weight = {pw};
  quant::apply_profile(net, p);
  return NetworkWorkload(std::move(net), p);
}

arch::LoomConfig static_cfg(int bits = 1) {
  arch::LoomConfig cfg;
  cfg.bits_per_cycle = bits;
  cfg.dynamic_act_precision = false;
  return cfg;
}

TEST(LoomSim, ConvCyclesByHand) {
  // 8x16x16 input, 32 filters, k3 p1, Pa=8, Pw=10 at E=128:
  // FB=1, WB=ceil(256/16)=16, IC=ceil(72/16)=5, chunk = 8*10.
  NetworkWorkload wl = conv_only(8, 16, 32, 8, 10);
  LoomSimulator sim(static_cfg(), SimOptions{});
  RunResult r = sim.run(wl);
  EXPECT_EQ(r.layers[0].compute_cycles, 16u * 5 * 80 + 8);
}

TEST(LoomSim, IdealConvSpeedupOnDivisibleGeometry) {
  // Co=128 fills the 128 rows exactly; 256 windows fill 16 columns.
  for (const auto& [pa, pw] : {std::pair{8, 10}, {5, 11}, {16, 16}, {4, 4}}) {
    NetworkWorkload wl = conv_only(8, 16, 128, pa, pw);
    LoomSimulator lm(static_cfg(), SimOptions{});
    DpnnSimulator dp(arch::DpnnConfig{}, SimOptions{});
    const double speedup = speedup_vs(lm.run(wl), dp.run(wl),
                                      RunResult::Filter::kConv);
    EXPECT_NEAR(speedup, 256.0 / (pa * pw), 0.02 * 256.0 / (pa * pw))
        << "pa=" << pa << " pw=" << pw;
  }
}

TEST(LoomSim, SixteenBitWorstCaseMatchesBaseline) {
  NetworkWorkload wl = conv_only(8, 16, 128, 16, 16);
  LoomSimulator lm(static_cfg(), SimOptions{});
  DpnnSimulator dp(arch::DpnnConfig{}, SimOptions{});
  const auto rl = lm.run(wl);
  const auto rd = dp.run(wl);
  EXPECT_NEAR(static_cast<double>(rl.cycles(RunResult::Filter::kConv)),
              static_cast<double>(rd.cycles(RunResult::Filter::kConv)), 16.0);
}

TEST(LoomSim, FilterUnderutilizationCutsSpeedup) {
  // 32 filters on 128 rows: only a quarter of the array works.
  NetworkWorkload full = conv_only(8, 16, 128, 8, 8);
  NetworkWorkload quarter = conv_only(8, 16, 32, 8, 8);
  LoomSimulator lm(static_cfg(), SimOptions{});
  DpnnSimulator dp(arch::DpnnConfig{}, SimOptions{});
  const double s_full =
      speedup_vs(lm.run(full), dp.run(full), RunResult::Filter::kConv);
  const double s_quarter =
      speedup_vs(lm.run(quarter), dp.run(quarter), RunResult::Filter::kConv);
  EXPECT_NEAR(s_quarter, s_full / 4.0, 0.1);
  NetworkWorkload wl = conv_only(8, 16, 32, 8, 8);
  RunResult r = lm.run(wl);
  EXPECT_NEAR(r.layers[0].utilization, 32.0 / 128.0 * (72.0 / 80.0), 0.02);
}

TEST(LoomSim, FcCyclesByHand) {
  // Ci=1024, Co=2048, Pw=9: FB=1, rounds=64, 16 act passes
  // + 15 stagger + 8 pipeline fill.
  NetworkWorkload wl = fc_only(1024, 2048, 9);
  LoomSimulator sim(static_cfg(), SimOptions{});
  RunResult r = sim.run(wl);
  EXPECT_EQ(r.layers[0].compute_cycles, 64u * 16 * 9 + 15 + 8);
}

TEST(LoomSim, FcIdealSpeedupIs16OverPw) {
  for (const int pw : {8, 9, 10, 16}) {
    NetworkWorkload wl = fc_only(4096, 2048, pw);
    LoomSimulator lm(static_cfg(), SimOptions{});
    DpnnSimulator dp(arch::DpnnConfig{}, SimOptions{});
    const double speedup =
        speedup_vs(lm.run(wl), dp.run(wl), RunResult::Filter::kFc);
    EXPECT_NEAR(speedup, 16.0 / pw, 0.03 * 16.0 / pw) << pw;
  }
}

TEST(LoomSim, CascadingRecoversSmallOutputFc) {
  // Co=512 uses a quarter of the SIPs without cascading.
  NetworkWorkload wl = fc_only(4096, 512, 8);
  arch::LoomConfig with = static_cfg();
  arch::LoomConfig without = static_cfg();
  without.cascading = false;
  LoomSimulator sim_with(with, SimOptions{});
  LoomSimulator sim_without(without, SimOptions{});
  NetworkWorkload wl2 = fc_only(4096, 512, 8);
  const auto cycles_with = sim_with.run(wl).cycles(RunResult::Filter::kFc);
  const auto cycles_without =
      sim_without.run(wl2).cycles(RunResult::Filter::kFc);
  EXPECT_NEAR(static_cast<double>(cycles_without) /
                  static_cast<double>(cycles_with),
              4.0, 0.2);
}

TEST(LoomSim, GoogleNetStyleFcUtilization) {
  // 1000 outputs on 2048 SIPs: ways=2 cascading -> ~97.7% utilization.
  NetworkWorkload wl = fc_only(1024, 1000, 7);
  LoomSimulator sim(static_cfg(), SimOptions{});
  RunResult r = sim.run(wl);
  EXPECT_GT(r.layers[0].utilization, 0.90);
}

TEST(LoomSim, MultiBitVariantsRoundPrecisionUp) {
  // Pa=5: LM1b processes 5 serial steps; LM4b needs ceil(5/4)=2 passes of
  // 4 bits — the §3.2 example where reducing 8->5 bits does not help LM4b.
  NetworkWorkload wl5 = conv_only(8, 16, 128, 5, 8);
  NetworkWorkload wl8 = conv_only(8, 16, 128, 8, 8);
  LoomSimulator lm4(static_cfg(4), SimOptions{});
  const auto c5 = lm4.run(wl5).cycles(RunResult::Filter::kConv);
  const auto c8 = lm4.run(wl8).cycles(RunResult::Filter::kConv);
  EXPECT_EQ(c5, c8);  // both take 2 passes per weight bit

  // LM1b does benefit: 5/8 of the cycles.
  LoomSimulator lm1(static_cfg(1), SimOptions{});
  const auto c5_1b = lm1.run(wl5).cycles(RunResult::Filter::kConv);
  const auto c8_1b = lm1.run(wl8).cycles(RunResult::Filter::kConv);
  EXPECT_NEAR(static_cast<double>(c8_1b) / static_cast<double>(c5_1b),
              8.0 / 5.0, 0.05);
}

TEST(LoomSim, MultiBitNeverFasterThanOneBitStatic) {
  for (const int pa : {5, 7, 8, 11, 13}) {
    NetworkWorkload wl1 = conv_only(8, 16, 128, pa, 9);
    NetworkWorkload wl2 = conv_only(8, 16, 128, pa, 9);
    NetworkWorkload wl4 = conv_only(8, 16, 128, pa, 9);
    LoomSimulator lm1(static_cfg(1), SimOptions{});
    LoomSimulator lm2(static_cfg(2), SimOptions{});
    LoomSimulator lm4(static_cfg(4), SimOptions{});
    const auto c1 = lm1.run(wl1).cycles(RunResult::Filter::kConv);
    const auto c2 = lm2.run(wl2).cycles(RunResult::Filter::kConv);
    const auto c4 = lm4.run(wl4).cycles(RunResult::Filter::kConv);
    EXPECT_LE(c1, c2 + 32) << pa;
    EXPECT_LE(c2, c4 + 32) << pa;
  }
}

TEST(LoomSim, DynamicPrecisionNeverSlowerThanStatic) {
  nn::Network net = nn::zoo::make("alexnet");
  const auto& profile = quant::profile_for("alexnet", quant::AccuracyTarget::k100);
  quant::apply_profile(net, profile);
  NetworkWorkload wl(std::move(net), profile);

  arch::LoomConfig dyn;
  arch::LoomConfig stat;
  stat.dynamic_act_precision = false;
  LoomSimulator sim_dyn(dyn, SimOptions{});
  LoomSimulator sim_stat(stat, SimOptions{});
  EXPECT_LE(sim_dyn.run(wl).cycles(RunResult::Filter::kConv),
            sim_stat.run(wl).cycles(RunResult::Filter::kConv));
}

TEST(LoomSim, PerGroupWeightsFasterThanProfile) {
  auto wl = prepare_network("alexnet", quant::AccuracyTarget::k100);
  arch::LoomConfig base;
  arch::LoomConfig grouped;
  grouped.per_group_weights = true;
  LoomSimulator sim_base(base, SimOptions{});
  LoomSimulator sim_grouped(grouped, SimOptions{});
  const auto all = RunResult::Filter::kAll;
  EXPECT_LT(sim_grouped.run(*wl).cycles(all), sim_base.run(*wl).cycles(all));
}

TEST(LoomSim, HonestGroupTimingSlowerThanLinearEstimate) {
  auto wl = prepare_network("alexnet", quant::AccuracyTarget::k100);
  arch::LoomConfig linear;
  linear.per_group_weights = true;
  arch::LoomConfig honest = linear;
  honest.honest_group_weight_timing = true;
  LoomSimulator sim_linear(linear, SimOptions{});
  LoomSimulator sim_honest(honest, SimOptions{});
  const auto all = RunResult::Filter::kAll;
  EXPECT_GE(sim_honest.run(*wl).cycles(all), sim_linear.run(*wl).cycles(all));
}

TEST(LoomSim, PackedWeightsShrinkOffchipTraffic) {
  NetworkWorkload wl_lm = fc_only(4096, 4096, 8);
  NetworkWorkload wl_dp = fc_only(4096, 4096, 8);
  SimOptions offchip;
  offchip.model_offchip = true;
  LoomSimulator lm(static_cfg(), offchip);
  DpnnSimulator dp(arch::DpnnConfig{}, offchip);
  const auto lm_bits = lm.run(wl_lm).offchip_bits();
  const auto dp_bits = dp.run(wl_dp).offchip_bits();
  // Pw=8 halves the weight traffic.
  EXPECT_NEAR(static_cast<double>(lm_bits) / static_cast<double>(dp_bits),
              0.5, 0.02);
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
