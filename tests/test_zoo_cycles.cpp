// Functional vs analytic cycle counts on whole zoo networks. Per weighted
// layer of NiN and AlexNet, with dynamic precision off on both sides:
//   * the functional Loom grid (16x16) plus kPipelineFill equals LM1b's
//     compute cycles at equiv_macs = 16 (rows() = 16 like the grid);
//   * the functional DPNN schedule plus kDpnnPipelineFill equals
//     DpnnSimulator's compute cycles.
// With detection off no cycle count depends on the values, so all-ones
// tensors of each layer's shapes stand in for real data.
#include <gtest/gtest.h>

#include <string>

#include "arch/config.hpp"
#include "quant/profiles.hpp"
#include "sim/dpnn_functional.hpp"
#include "sim/functional.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

class ZooCycles : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooCycles, FunctionalPlusFillMatchesAnalyticPerLayer) {
  auto wl = prepare_network(GetParam(), quant::AccuracyTarget::k100);
  const nn::Network& net = wl->network();

  arch::LoomConfig lm1b_cfg;
  lm1b_cfg.equiv_macs = 16;
  lm1b_cfg.dynamic_act_precision = false;
  const RunResult lm1b = make_loom_simulator(lm1b_cfg)->run(*wl);
  const RunResult dpnn = make_dpnn_simulator(arch::DpnnConfig{})->run(*wl);

  FunctionalLoomEngine loom(FunctionalOptions{
      .dynamic_act_precision = false, .jobs = 1, .backend = "gemm"});
  FunctionalDpnnEngine dpnn_engine(
      FunctionalOptions{.rows = kDpnnFilters, .jobs = 1, .backend = "gemm"});

  std::size_t w = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& layer = net.layer(i);
    if (!layer.has_weights()) continue;
    ASSERT_LT(w, lm1b.layers.size());
    const nn::Tensor input(nn::Shape{layer.in.c, layer.in.h, layer.in.w}, 1);
    const nn::Tensor weights(nn::Shape{layer.weight_count()}, 1);
    const auto cycles = [&](FunctionalEngine& engine) {
      return layer.kind == nn::LayerKind::kConv
                 ? engine.run_conv(layer, input, weights, kBasePrecision).cycles
                 : engine.run_fc(layer, input, weights, kBasePrecision).cycles;
    };
    EXPECT_EQ(cycles(loom) + kPipelineFill, lm1b.layers[w].compute_cycles)
        << layer.name;
    EXPECT_EQ(cycles(dpnn_engine) + kDpnnPipelineFill,
              dpnn.layers[w].compute_cycles)
        << layer.name;
    ++w;
  }
  EXPECT_EQ(w, lm1b.layers.size());
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooCycles, ::testing::Values("nin", "alexnet"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace loom::sim
