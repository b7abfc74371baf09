// The shared memory-timing core (sim/engine) end to end: constrained runs
// keep compute byte-identical and only add per-tile stalls/traffic, an
// AM-spilling VGG-style layer produces real tile schedules with nonzero
// stalls, Loom's packed traffic undercuts DPNN's unpacked traffic, output
// drains price at the consumer layer's input precision, and the capacity
// knobs reach the plans.
#include <gtest/gtest.h>

#include "mem/bitpacked.hpp"
#include "nn/zoo/zoo.hpp"
#include "sim/dpnn_sim.hpp"
#include "sim/loom_sim.hpp"
#include "sim/stripes_sim.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

NetworkWorkload vgg_conv_layer() {
  // VGG conv2_1 shape: 128ch 112x112 -> 128 filters 3x3. Activations are
  // ~4.6 MB unpacked — far beyond every AM sizing.
  nn::Network net("vggish", nn::Shape3{128, 112, 112});
  net.add_conv("conv", 128, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "vggish";
  p.conv_act = {9};
  p.conv_weight = 12;
  quant::apply_profile(net, p);
  return NetworkWorkload(std::move(net), p);
}

NetworkWorkload two_conv_net(int consumer_act_precision) {
  nn::Network net("chain", nn::Shape3{16, 32, 32});
  net.add_conv("producer", 32, 3, 1, 1).precision_group = 0;
  net.add_conv("consumer", 16, 3, 1, 1).precision_group = 1;
  quant::PrecisionProfile p;
  p.network = "chain";
  p.conv_act = {8, consumer_act_precision};
  p.conv_weight = 10;
  quant::apply_profile(net, p);
  return NetworkWorkload(std::move(net), p);
}

SimOptions constrained(std::int64_t am_bytes = 0, std::int64_t wm_bytes = 0) {
  SimOptions o;
  o.model_offchip = true;
  o.am_bytes = am_bytes;
  o.wm_bytes = wm_bytes;
  return o;
}

TEST(MemoryEngine, ConstrainedModeNeverChangesComputeCycles) {
  // The tile scheduler's per-block cycle callbacks must sum exactly to the
  // analytic layer totals for every simulator, conv and FC, static and
  // dynamic precision, grouped and plain.
  nn::Network net = nn::zoo::make("alexnet");
  const auto& profile =
      quant::profile_for("alexnet", quant::AccuracyTarget::k100);
  quant::apply_profile(net, profile);
  NetworkWorkload wl(std::move(net), profile);

  const auto check = [&](auto make_sim) {
    auto free_sim = make_sim(SimOptions{});
    auto tight_sim = make_sim(constrained(96 << 10, 256 << 10));
    const RunResult free_run = free_sim->run(wl);
    const RunResult tight_run = tight_sim->run(wl);
    ASSERT_EQ(free_run.layers.size(), tight_run.layers.size());
    for (std::size_t i = 0; i < free_run.layers.size(); ++i) {
      EXPECT_EQ(free_run.layers[i].compute_cycles,
                tight_run.layers[i].compute_cycles)
          << free_run.arch_name << " layer " << free_run.layers[i].name;
      EXPECT_EQ(free_run.layers[i].stall_cycles, 0u);
    }
    EXPECT_GT(tight_run.offchip_bits(), 0u);
  };

  check([](const SimOptions& o) {
    arch::LoomConfig cfg;
    return make_loom_simulator(cfg, o);
  });
  check([](const SimOptions& o) {
    arch::StripesConfig cfg;
    cfg.dynamic_act_precision = true;
    return make_stripes_simulator(cfg, o);
  });
  check([](const SimOptions& o) {
    return make_dpnn_simulator(arch::DpnnConfig{}, o);
  });
  check([](const SimOptions& o) {
    return make_laconic_simulator(arch::LaconicConfig{}, o);
  });
}

TEST(MemoryEngine, AmSpillingVggLayerStallsPerTile) {
  NetworkWorkload wl = vgg_conv_layer();
  LoomSimulator sim(arch::LoomConfig{}, constrained());
  const RunResult r = sim.run(wl);
  ASSERT_EQ(r.layers.size(), 1u);
  const LayerResult& l = r.layers[0];

  // The layer spills the 1 MB packed AM: the plan tiles the window axis,
  // several tiles wait on the channel, and the drains are real.
  EXPECT_FALSE(l.memory.acts_resident);
  EXPECT_GT(l.memory.tiles, 1u);
  EXPECT_GT(l.stall_cycles, 0u);
  EXPECT_GT(l.memory.stalled_tiles, 0u);
  EXPECT_GT(l.memory.max_tile_stall, 0u);
  EXPECT_LE(l.memory.max_tile_stall, l.stall_cycles);
  EXPECT_GT(l.memory.act_fill_bits, 0u);
  EXPECT_GT(l.memory.out_drain_bits, 0u);
  EXPECT_EQ(l.activity.dram_read_bits,
            l.memory.act_fill_bits + l.memory.weight_fill_bits);
  EXPECT_EQ(l.activity.dram_write_bits, l.memory.out_drain_bits);
  EXPECT_EQ(l.activity.dram_stall_cycles, l.stall_cycles);
}

TEST(MemoryEngine, LoomPackedTrafficStrictlyBelowDpnnUnpacked) {
  NetworkWorkload wl_lm = vgg_conv_layer();
  NetworkWorkload wl_dp = vgg_conv_layer();
  LoomSimulator lm(arch::LoomConfig{}, constrained());
  DpnnSimulator dp(arch::DpnnConfig{}, constrained());
  const RunResult rl = lm.run(wl_lm);
  const RunResult rd = dp.run(wl_dp);
  // Both spill (even DPNN's 2 MB AM is far too small), but Loom moves
  // bit-packed activations and weights where DPNN moves 16-bit words.
  EXPECT_FALSE(rl.layers[0].memory.acts_resident);
  EXPECT_FALSE(rd.layers[0].memory.acts_resident);
  EXPECT_LT(rl.offchip_bits(), rd.offchip_bits());
  // The packing advantage is large, not marginal: Pa<=9 of 16 on the
  // activation stream and 12 of 16 on weights.
  EXPECT_LT(static_cast<double>(rl.offchip_bits()),
            0.85 * static_cast<double>(rd.offchip_bits()));
}

TEST(MemoryEngine, OutputDrainsPriceAtConsumerInputPrecision) {
  // Regression for the old add_offchip bug that priced output drains at
  // the *producer's input* precision: the producer's outputs are stored at
  // the precision the consumer layer will read them (its profile Pa).
  const auto drains_for = [](int consumer_pa) {
    NetworkWorkload wl = two_conv_net(consumer_pa);
    // Tiny AM forces both layers to spill, so the producer writes its
    // outputs off-chip.
    LoomSimulator sim(arch::LoomConfig{}, constrained(24 << 10));
    const RunResult r = sim.run(wl);
    return r.layers[0].memory.out_drain_bits;
  };
  const nn::Layer producer = [] {
    nn::Network net("chain", nn::Shape3{16, 32, 32});
    return net.add_conv("producer", 32, 3, 1, 1);
  }();
  const auto elements = static_cast<std::uint64_t>(producer.out.elements());
  // Drains scale with the consumer's Pa, element-exactly.
  EXPECT_EQ(drains_for(6), elements * 6);
  EXPECT_EQ(drains_for(12), elements * 12);
  // The old formula would have charged the producer's input precision
  // (8 bits) in both cases.
}

TEST(MemoryEngine, FatFcStreamsWeightsThroughChunks) {
  // 4096x4096 FC at Pw=8: the weight stream dwarfs the WM, the acts fit.
  NetworkWorkload wl = [] {
    nn::Network net("fat", nn::Shape3{4096, 1, 1});
    net.add_fc("fc", 4096);
    quant::PrecisionProfile p;
    p.network = "fat";
    p.fc_weight = {8};
    quant::apply_profile(net, p);
    return NetworkWorkload(std::move(net), p);
  }();
  LoomSimulator sim(arch::LoomConfig{}, constrained());
  const RunResult r = sim.run(wl);
  const LayerResult& l = r.layers[0];
  EXPECT_TRUE(l.memory.acts_resident);
  EXPECT_FALSE(l.memory.weights_resident);
  EXPECT_GT(l.memory.tiles, 1u);
  // The stream passes exactly once: packed weight bits, no act traffic.
  EXPECT_EQ(l.memory.weight_fill_bits,
            static_cast<std::uint64_t>(
                mem::packed_bits(std::int64_t{4096} * 4096, 8)));
  EXPECT_EQ(l.memory.act_fill_bits, 0u);
  // Bandwidth-bound: the stall dominates compute.
  EXPECT_GT(l.stall_cycles, l.compute_cycles);
}

TEST(MemoryEngine, SmallerAmMeansMoreTrafficNeverLess) {
  NetworkWorkload wl_a = vgg_conv_layer();
  NetworkWorkload wl_b = vgg_conv_layer();
  LoomSimulator roomy(arch::LoomConfig{}, constrained(2 << 20));
  LoomSimulator tight(arch::LoomConfig{}, constrained(128 << 10));
  const auto roomy_bits = roomy.run(wl_a).offchip_bits();
  const auto tight_bits = tight.run(wl_b).offchip_bits();
  EXPECT_GE(tight_bits, roomy_bits);
}

TEST(MemoryEngine, CrossLayerPrefetchHidesWeightFills) {
  // Two layers whose weights fit the WM: layer 1's weight fill overlaps
  // layer 0's compute, so the whole-run stall is below the naive
  // sum of per-layer exposed fills.
  NetworkWorkload wl = two_conv_net(8);
  LoomSimulator sim(arch::LoomConfig{}, constrained());
  const RunResult r = sim.run(wl);
  ASSERT_EQ(r.layers.size(), 2u);
  // Both layers fit on chip here; only weight streams hit DRAM.
  EXPECT_TRUE(r.layers[0].memory.acts_resident);
  EXPECT_TRUE(r.layers[1].memory.acts_resident);
  // The second layer's weights prefetch under the first layer's compute:
  // its stall must be smaller than its raw fill time.
  EXPECT_LT(r.layers[1].stall_cycles, r.layers[1].memory.fill_cycles);
}

TEST(MemoryEngine, TileBlocksSumToAnalyticComputeExactly) {
  // Drift tripwire: every simulator's tile callback must sum its chunk
  // costs exactly as its analytic layer loop does. With static integer
  // precisions there is no rounding, so the residual the engine absorbs on
  // the first tile is *exactly* the model's per-layer constants —
  // kPipelineFill for conv, plus the column stagger for Loom's FC.
  nn::Network net("mixed", nn::Shape3{8, 16, 16});
  net.add_conv("c", 32, 3, 1, 1).precision_group = 0;
  net.add_fc("f", 100);
  quant::PrecisionProfile p;
  p.network = "mixed";
  p.conv_act = {8};
  p.conv_weight = 10;
  p.fc_weight = {9};
  quant::apply_profile(net, p);
  NetworkWorkload wl(std::move(net), p);

  // Roomy enough that every layer schedules (an FC input can never split
  // below one window), tight enough that the FC weight stream chunks.
  const SimOptions tight = constrained(32 << 10, 64 << 10);

  arch::LoomConfig lcfg;
  lcfg.dynamic_act_precision = false;
  LoomSimulator lm(lcfg, tight);
  const RunResult rl = lm.run(wl);
  EXPECT_EQ(rl.layers[0].memory.compute_residual_cycles,
            static_cast<std::int64_t>(kPipelineFill));
  // FC: pipeline fill + the cols-1 column-stagger initiation cycles.
  EXPECT_EQ(rl.layers[1].memory.compute_residual_cycles,
            static_cast<std::int64_t>(kPipelineFill) + 15);

  arch::StripesConfig scfg;
  scfg.dynamic_act_precision = false;
  StripesSimulator st(scfg, tight);
  const RunResult rs = st.run(wl);
  EXPECT_EQ(rs.layers[0].memory.compute_residual_cycles,
            static_cast<std::int64_t>(kPipelineFill));
  EXPECT_EQ(rs.layers[1].memory.compute_residual_cycles,
            static_cast<std::int64_t>(kPipelineFill));

  DpnnSimulator dp(arch::DpnnConfig{}, tight);
  const RunResult rd = dp.run(wl);
  // DPNN's shallower pipeline charges its own fill per layer.
  EXPECT_EQ(rd.layers[0].memory.compute_residual_cycles,
            static_cast<std::int64_t>(kDpnnPipelineFill));
  EXPECT_EQ(rd.layers[1].memory.compute_residual_cycles,
            static_cast<std::int64_t>(kDpnnPipelineFill));

  // Dynamic detection changes the per-chunk values but not the mirroring:
  // the residual stays the same constant (table reads are integers too).
  LoomSimulator lm_dyn(arch::LoomConfig{}, tight);
  const RunResult rdy = lm_dyn.run(wl);
  EXPECT_EQ(rdy.layers[0].memory.compute_residual_cycles,
            static_cast<std::int64_t>(kPipelineFill));
}

TEST(MemoryEngine, StallAccessorSumsLayers) {
  NetworkWorkload wl = vgg_conv_layer();
  LoomSimulator sim(arch::LoomConfig{}, constrained());
  const RunResult r = sim.run(wl);
  std::uint64_t sum = 0;
  for (const auto& l : r.layers) sum += l.stall_cycles;
  EXPECT_EQ(r.stall_cycles(), sum);
  EXPECT_EQ(r.cycles(), r.cycles(RunResult::Filter::kAll));
  EXPECT_EQ(r.cycles() - r.stall_cycles(),
            r.layers[0].compute_cycles);
}

}  // namespace
}  // namespace loom::sim
