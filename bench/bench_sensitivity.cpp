// Sensitivity studies beyond the paper's headline numbers:
//   1. Off-chip bandwidth: sweep the LPDDR4 sustained-efficiency factor and
//      watch the FCL-bound all-layers speedup move (the §4.5 "FCLs are
//      off-chip bound" observation quantified).
//   2. Detector granularity: sweep the dynamic-precision group size; finer
//      groups trim more bits but need more detectors.
//   3. FCL initiation interval: the column-stagger cost on tiny FCLs, the
//      effect §4.3 notes for the multi-bit variants.
#include <iostream>

#include "core/loom.hpp"

using namespace loom;

namespace {

void dram_sweep(const std::string& network) {
  TextTable t("LPDDR4 sustained-efficiency sweep on " + network +
              " (LM1b vs DPNN, all layers)");
  t.set_header({"DRAM efficiency", "DPNN fps", "LM1b fps", "Speedup",
                "LM FC stall fraction"});
  for (const double eff : {0.50, 0.65, 0.75, 0.90, 1.00}) {
    auto wl = sim::prepare_network(network, quant::AccuracyTarget::k100);
    sim::SimOptions so;
    so.model_offchip = true;
    so.dram.efficiency = eff;
    auto dpnn = sim::make_dpnn_simulator(arch::DpnnConfig{}, so);
    auto lm = sim::make_loom_simulator(arch::LoomConfig{}, so);
    const auto rb = dpnn->run(*wl);
    const auto rl = lm->run(*wl);
    std::uint64_t fc_stall = 0, fc_total = 0;
    for (const auto& l : rl.layers) {
      if (l.kind == nn::LayerKind::kFullyConnected) {
        fc_stall += l.stall_cycles;
        fc_total += l.cycles();
      }
    }
    t.add_row({TextTable::num(eff), TextTable::num(rb.fps(), 0),
               TextTable::num(rl.fps(), 0),
               TextTable::num(sim::speedup_vs(rl, rb, sim::RunResult::Filter::kAll)),
               fc_total ? TextTable::num(static_cast<double>(fc_stall) /
                                         static_cast<double>(fc_total))
                        : "n/a"});
  }
  std::cout << t.render() << '\n';
}

void detector_granularity(const std::string& network) {
  // The cycle model groups detection at the AM fetch granularity (256).
  // Here we measure, from the workload data itself, the mean detected
  // precision at several group sizes — the knob a redesign would tune.
  TextTable t("Detector granularity on " + network +
              ": mean detected Pa over real window groups");
  t.set_header({"Layer", "Profile", "cols=4 (64)", "cols=8 (128)",
                "cols=16 (256)"});
  auto wl = sim::prepare_network(network, quant::AccuracyTarget::k100);
  const auto convs = wl->network().conv_indices();
  for (const std::size_t li : convs) {
    const nn::Layer& layer = wl->network().layer(li);
    sim::LayerWorkload& lw = wl->layer(li);
    std::vector<std::string> row{layer.name, std::to_string(layer.act_precision)};
    for (const int cols : {4, 8, 16}) {
      const sim::ActPrecisionTable table = lw.act_group_precision_table(cols);
      const std::int64_t wb_count = table.wb_count();
      const std::int64_t ic_count = table.ic_count();
      double sum = 0.0;
      std::int64_t n = 0;
      const std::int64_t stride = std::max<std::int64_t>(1, wb_count * ic_count / 512);
      for (std::int64_t k = 0; k < wb_count * ic_count; k += stride) {
        sum += table.at(0, k / ic_count, k % ic_count);
        ++n;
      }
      row.push_back(TextTable::num(sum / static_cast<double>(n)));
    }
    t.add_row(std::move(row));
  }
  std::cout << t.render() << '\n';
}

void fc_initiation() {
  TextTable t("FCL initiation interval: tiny layers vs the column stagger");
  t.set_header({"Ci", "Co", "LM1b cycles", "LM2b cycles", "LM4b cycles",
                "LM4b/LM1b"});
  for (const auto& [ci, co] : {std::pair{256, 64}, {1024, 1000}, {4096, 4096}}) {
    std::vector<std::uint64_t> cycles;
    for (const int bits : {1, 2, 4}) {
      nn::Network net("fc", nn::Shape3{ci, 1, 1});
      net.add_fc("f", co);
      quant::PrecisionProfile p;
      p.network = "fc";
      p.fc_weight = {9};
      quant::apply_profile(net, p);
      sim::NetworkWorkload wl(std::move(net), p);
      arch::LoomConfig cfg;
      cfg.bits_per_cycle = bits;
      cfg.dynamic_act_precision = false;
      auto sim = sim::make_loom_simulator(cfg, sim::SimOptions{});
      cycles.push_back(sim->run(wl).cycles(sim::RunResult::Filter::kFc));
    }
    t.add_row({std::to_string(ci), std::to_string(co),
               std::to_string(cycles[0]), std::to_string(cycles[1]),
               std::to_string(cycles[2]),
               TextTable::num(static_cast<double>(cycles[2]) /
                              static_cast<double>(cycles[0]))});
  }
  std::cout << t.render() << '\n';
  std::cout << "Processing more activation bits per cycle shortens the "
               "stagger (cols-1 cycles), visible only on small FCLs — the "
               "§4.3 observation.\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const core::Options cli(argc, argv);
  const std::string network = cli.get("network", "alexnet");
  dram_sweep(network);
  detector_granularity(network);
  fc_initiation();
  return 0;
}
