#include "sim/dpnn_sim.hpp"

#include "common/error.hpp"

namespace loom::sim {

DpnnSimulator::DpnnSimulator(const arch::DpnnConfig& cfg, const SimOptions& opts)
    : Simulator(opts, cfg.equiv_macs, /*bits_per_cycle=*/1,
                /*bit_packed=*/false),
      cfg_(cfg) {
  cfg_.validate();
}

LayerModel DpnnSimulator::model_layer(LayerWorkload& lw) const {
  const nn::Layer& layer = lw.layer();
  LayerModel m(layer);
  LayerResult& r = m.result;
  r.mean_act_precision = kBasePrecision;
  r.mean_weight_precision = kBasePrecision;

  const int lanes = cfg_.act_lanes;
  const int k = cfg_.filters();
  const std::int64_t ic_count = ceil_div(layer.inner_length(), lanes);
  // One cycle per (window, input chunk, filter block).
  const auto schedule_cycles = [ic_count](std::int64_t windows,
                                          std::int64_t filter_blocks) {
    return static_cast<std::uint64_t>(windows * ic_count * filter_blocks);
  };
  const std::int64_t filter_blocks =
      layer.groups * ceil_div(layer.group_out_channels(), k);
  std::uint64_t cycles = schedule_cycles(layer.windows(), filter_blocks);

  // Every cycle: 16 activations broadcast from ABin and k x 16 weights
  // streamed over the weight bus from WM.
  r.activity.abin_read_bits = cycles * static_cast<std::uint64_t>(lanes) * 16;
  r.activity.wm_read_bits = cycles * static_cast<std::uint64_t>(k) * lanes * 16;
  // Each input activation is refetched from AM into ABin once per filter
  // block of its conv group.
  const std::uint64_t am_fetch =
      static_cast<std::uint64_t>(layer.in.elements() / layer.groups) * 16 *
      static_cast<std::uint64_t>(filter_blocks);
  r.activity.am_read_bits = am_fetch;
  r.activity.abin_write_bits = am_fetch;

  cycles += kDpnnPipelineFill;
  r.compute_cycles = cycles;
  r.activity.mac_ops = static_cast<std::uint64_t>(r.macs);
  r.utilization =
      static_cast<double>(r.macs) /
      (static_cast<double>(cycles) * static_cast<double>(cfg_.equiv_macs));
  const std::uint64_t mac_slots =
      cycles * static_cast<std::uint64_t>(cfg_.equiv_macs);
  r.activity.mac_idle_cycles =
      mac_slots > r.activity.mac_ops ? mac_slots - r.activity.mac_ops : 0;

  // Outputs: accumulate in the IP registers, drain through ABout into AM
  // at full 16-bit width (the baseline does not pack).
  const std::uint64_t out_bits =
      static_cast<std::uint64_t>(layer.out.elements()) * 16;
  r.activity.about_write_bits = out_bits;
  r.activity.about_read_bits = out_bits;
  r.activity.am_write_bits = out_bits;

  // The baseline stores everything at the full 16 bits — weights in 16-bit
  // rows, activations unpacked (the LayerStorage defaults).
  m.storage.filter_quantum = k;
  m.storage.window_quantum = layer.kind == nn::LayerKind::kConv ? 16 : 1;
  m.block_compute = [=](const mem::TileExtent& t) {
    return static_cast<double>(
        schedule_cycles(t.window_count(), ceil_div(t.filter_count(), k)));
  };
  return m;
}

}  // namespace loom::sim
