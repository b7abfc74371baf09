// Cycle counts on whole zoo networks, per weighted layer of NiN and
// AlexNet, with dynamic precision off:
//   * the functional Loom grid (16x16) plus kPipelineFill equals LM1b's
//     compute cycles at equiv_macs = 16 (rows() = 16 like the grid);
//   * DpnnSimulator's compute cycles (kDpnnPipelineFill included) equal
//     literal pins: the baseline's data-independent schedule, groups x
//     ceil(cog/8) filter blocks x windows x ceil(inner/16) chunks.
// With detection off no cycle count depends on the values, so all-ones
// tensors of each layer's shapes stand in for real data.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "quant/profiles.hpp"
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

  FunctionalLoomEngine loom(FunctionalOptions{
      .dynamic_act_precision = false, .jobs = 1, .backend = "gemm"});

  std::size_t w = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& layer = net.layer(i);
    if (!layer.has_weights()) continue;
    ASSERT_LT(w, lm1b.layers.size());
    const nn::Tensor input(nn::Shape{layer.in.c, layer.in.h, layer.in.w}, 1);
    const nn::Tensor weights(nn::Shape{layer.weight_count()}, 1);
    const std::uint64_t cycles =
        layer.kind == nn::LayerKind::kConv
            ? loom.run_conv(layer, input, weights, kBasePrecision).cycles
            : loom.run_fc(layer, input, weights, kBasePrecision).cycles;
    EXPECT_EQ(cycles + kPipelineFill, lm1b.layers[w].compute_cycles)
        << layer.name;
    ++w;
  }
  EXPECT_EQ(w, lm1b.layers.size());
}

TEST_P(ZooCycles, DpnnComputeCyclesArePinned) {
  const std::vector<std::uint64_t> want =
      GetParam() == "nin"
          ? std::vector<std::uint64_t>{804822, 209958, 209958, 3499206,
                                       373254, 373254, 1168134, 194694,
                                       194694, 995334, 294918, 288006}
          : std::vector<std::uint64_t>{834906, 1749606, 1168134, 876102,
                                       584070, 294918, 131078, 32006};
  auto wl = prepare_network(GetParam(), quant::AccuracyTarget::k100);
  const RunResult dpnn = make_dpnn_simulator(arch::DpnnConfig{})->run(*wl);
  ASSERT_EQ(dpnn.layers.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(dpnn.layers[w].compute_cycles, want[w]) << dpnn.layers[w].name;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooCycles, ::testing::Values("nin", "alexnet"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace loom::sim
