#include "sim/loom_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace loom::sim {

namespace {

/// Loom's convolutional chunk model for one layer: the activation precision
/// of chunk (g, wb, ic) and its ceil(Pa/bpc) x Pw serial cycles.
struct ConvChunks {
  ActPrecisionTable pa_table{};  ///< detected precisions; unused when static
  bool dynamic = false;
  int profile_pa = 0;
  int cols = 0;
  int bpc = 1;
  double pw = 0.0;

  /// Detection runs on 16-window groups whatever the column count, so
  /// window block wb of `cols` windows reads group (wb * cols) / 16.
  [[nodiscard]] int pa(std::int64_t g, std::int64_t wb, std::int64_t ic) const {
    return dynamic ? pa_table.at(g, (wb * cols) / 16, ic) : profile_pa;
  }
  [[nodiscard]] double serial_passes(int pa) const {
    return static_cast<double>(ceil_div(pa, bpc));
  }
  [[nodiscard]] double cycles(int pa) const { return serial_passes(pa) * pw; }
  [[nodiscard]] double operator()(std::int64_t g, std::int64_t wb,
                                  std::int64_t ic) const {
    return cycles(pa(g, wb, ic));
  }
};

}  // namespace

FcCascadePlan plan_fc_cascade(std::int64_t rows, std::int64_t cols,
                              std::int64_t lanes, std::int64_t out_channels,
                              std::int64_t in_elements,
                              double weight_precision, double act_passes,
                              bool cascading) {
  const std::int64_t concurrent = rows * cols;
  FcCascadePlan best;
  const std::int64_t max_ways = cascading ? cols : 1;
  for (std::int64_t ways = 1; ways <= max_ways; ways *= 2) {
    FcCascadePlan plan{.ways = ways,
                       .outputs_per_block = concurrent / ways,
                       .act_passes = act_passes,
                       .weight_precision = weight_precision};
    if (plan.outputs_per_block == 0) break;
    plan.blocks = ceil_div(out_channels, plan.outputs_per_block);
    plan.rounds = ceil_div(in_elements, lanes * ways);
    plan.cycles = plan.block_cycles(plan.blocks);
    if (best.blocks == 0 || plan.cycles < best.cycles) best = plan;
  }
  return best;
}

void set_fc_timing(LayerModel& m, const FcCascadePlan& plan) {
  m.storage.window_quantum = 1;
  m.storage.filter_quantum = plan.outputs_per_block;
  m.block_compute = [plan](const mem::TileExtent& t) {
    return plan.block_cycles(
        ceil_div(t.filter_count(), plan.outputs_per_block));
  };
}

LoomSimulator::LoomSimulator(const arch::LoomConfig& cfg, const SimOptions& opts)
    : Simulator(opts, cfg.equiv_macs, cfg.bits_per_cycle, /*bit_packed=*/true),
      cfg_(cfg) {
  cfg_.validate();
}

std::string LoomSimulator::name() const { return cfg_.to_string(); }

double LoomSimulator::timing_weight_precision(LayerWorkload& lw) const {
  if (cfg_.sparse_weight_skipping) {
    // §6 future-work estimate: serial passes shrink to the essential
    // (any-weight-has-a-one) bit-planes under sign-magnitude streaming.
    const double essential = lw.essential_weight_planes();
    if (cfg_.per_group_weights) {
      return std::min(essential, lw.effective_weight_precision());
    }
    return std::min(essential,
                    static_cast<double>(lw.layer().weight_precision));
  }
  if (!cfg_.per_group_weights) {
    return static_cast<double>(lw.layer().weight_precision);
  }
  if (cfg_.honest_group_weight_timing) {
    // All rows load their weight-group bits in lock step, so a chunk's
    // serial passes must cover the worst group among the rows x lanes/16
    // groups loaded together.
    const int rows_groups = cfg_.rows() * cfg_.lanes / cfg_.weight_group();
    return lw.honest_weight_precision(rows_groups);
  }
  // Paper §4.6: assume performance scales linearly with the measured mean
  // effective per-group weight precision.
  return lw.effective_weight_precision();
}

LayerModel LoomSimulator::model_layer(LayerWorkload& lw) const {
  const nn::Layer& layer = lw.layer();
  LayerModel m = layer.kind == nn::LayerKind::kConv ? model_conv(lw)
                                                    : model_fc(lw);
  // Weights lay out bit-packed at the static profile precision (per-group
  // packing would need per-group metadata; the static profile is what the
  // memory layout uses).
  m.storage.weights_bit_packed = true;
  m.storage.weight_precision = layer.weight_precision;
  if (cfg_.sparse_weight_skipping) {
    // Essential-plane packing: groups store only the sign-magnitude planes
    // in which some weight has a one, plus a Pw-bit plane-presence bitmap
    // per 16-weight group, so DRAM/WM footprints shrink along with the
    // compute estimate instead of the flag being priced nowhere.
    m.storage.weight_mean_plane_bits =
        lw.essential_weight_planes() +
        static_cast<double>(layer.weight_precision) / 16.0;
  }
  return m;
}

LayerModel LoomSimulator::model_conv(LayerWorkload& lw) const {
  const nn::Layer& layer = lw.layer();
  LayerModel m(layer);
  LayerResult& r = m.result;

  const int rows = cfg_.rows();
  const int cols = cfg_.cols();
  const int lanes = cfg_.lanes;
  const int bpc = cfg_.bits_per_cycle;

  const double pw = timing_weight_precision(lw);
  const std::int64_t windows = layer.windows();
  const std::int64_t inner = layer.inner_length();
  const std::int64_t wb_count = ceil_div(windows, cols);
  const std::int64_t ic_count = ceil_div(inner, lanes);

  // Dynamic detection happens at the dispatcher on AM-fetch groups of
  // 16 windows x 16 lanes (256 activations) regardless of the SIP
  // column count, so the LM2b/4b variants see the same per-group
  // precisions as LM1b (paper §3.2). The whole per-layer table is filled
  // from the OR planes up front; the loops below are plain array reads.
  ConvChunks model{.dynamic = cfg_.dynamic_act_precision,
                   .profile_pa = layer.act_precision,
                   .cols = cols,
                   .bpc = bpc,
                   .pw = pw};
  if (model.dynamic) {
    model.pa_table = lw.act_group_precision_table(16);
    // One-time loop-bound contract for the whole layer: a config with
    // *finer* lanes than the workload table would read past it, so it must
    // fail loudly here. (A coarser-lanes config passes, reading sub-chunk
    // precisions. The wb index (wb*cols)/16 is in bounds by construction
    // for a cols=16 table of the same layer.)
    LOOM_EXPECTS(ic_count <= model.pa_table.ic_count());
  }

  double cycles = 0.0;
  double busy_lane_cycles = 0.0;
  double pa_weighted = 0.0;
  std::uint64_t chunks = 0;

  for (int g = 0; g < layer.groups; ++g) {
    const std::int64_t cog = layer.group_out_channels();
    const std::int64_t fb = ceil_div(cog, rows);
    const auto dcog = static_cast<double>(cog);
    // Weight-memory reads are invariant per chunk: hoist the per-chunk
    // truncation once and scale by the chunk count (integer-exact).
    r.activity.wm_read_bits +=
        static_cast<std::uint64_t>(dcog * static_cast<double>(lanes) * pw) *
        static_cast<std::uint64_t>(wb_count * ic_count);
    for (std::int64_t wb = 0; wb < wb_count; ++wb) {
      const std::int64_t cols_used =
          std::min<std::int64_t>(cols, windows - wb * cols);
      // Per-(wb, ic) accounting that does not depend on the detected
      // precision, hoisted out of the chunk loop (integer-exact: every
      // chunk of this wb contributes the identical truncated value, and
      // the lanes_used tail sums to `inner` across the ic chunks).
      r.activity.wr_bits_loaded += static_cast<std::uint64_t>(
                                       dcog * static_cast<double>(cols_used * lanes) * pw) *
                                   static_cast<std::uint64_t>(ic_count);
      if (cfg_.dynamic_act_precision) {
        r.activity.detector_values +=
            static_cast<std::uint64_t>(cols_used * inner);
      }
      for (std::int64_t ic = 0; ic < ic_count; ++ic) {
        const std::int64_t lanes_used =
            std::min<std::int64_t>(lanes, inner - ic * lanes);
        const int pa = model.pa(g, wb, ic);
        const double pa_serial = model.serial_passes(pa);
        const double chunk_cycles = model.cycles(pa);

        cycles += chunk_cycles * static_cast<double>(fb);
        pa_weighted += pa;
        ++chunks;

        // Active rows summed over the fb filter blocks equal cog exactly.
        r.activity.sip_lane_bit_ops += static_cast<std::uint64_t>(
            dcog * static_cast<double>(cols_used * lanes_used) *
            static_cast<double>(pa) * pw);
        // A SIP is "busy" for the chunk's serial cycles; scale by the
        // fraction of its lanes carrying real data.
        busy_lane_cycles += dcog * static_cast<double>(cols_used) *
                            (static_cast<double>(lanes_used) /
                             static_cast<double>(lanes)) *
                            pa_serial * pw;
        r.activity.abin_read_bits += static_cast<std::uint64_t>(
            static_cast<double>(cols_used * lanes * pa) * pw *
            static_cast<double>(fb));
        // AM -> ABin fetch, bit-packed at the detected precision, once per
        // filter block.
        const std::uint64_t am_bits = static_cast<std::uint64_t>(
            cols_used * lanes_used * pa * fb);
        r.activity.am_read_bits += am_bits;
        r.activity.abin_write_bits += am_bits;
      }
    }
  }

  r.compute_cycles = static_cast<std::uint64_t>(std::llround(cycles)) + kPipelineFill;
  r.mean_act_precision = chunks ? pa_weighted / static_cast<double>(chunks) : 0.0;
  r.mean_weight_precision = pw;
  r.utilization = busy_lane_cycles /
                  (static_cast<double>(r.compute_cycles) *
                   static_cast<double>(rows) * static_cast<double>(cols));
  // Idle lane slots still clock (underutilization energy penalty).
  const double lane_slots = static_cast<double>(r.compute_cycles) *
                            static_cast<double>(rows) *
                            static_cast<double>(cols) *
                            static_cast<double>(lanes);
  r.activity.sip_idle_lane_cycles = static_cast<std::uint64_t>(
      std::max(0.0, lane_slots - busy_lane_cycles * static_cast<double>(lanes)));

  const std::uint64_t out_bits =
      static_cast<std::uint64_t>(layer.out.elements()) * 16;
  r.activity.about_write_bits = out_bits;
  r.activity.about_read_bits = out_bits;
  const std::uint64_t packed_out = static_cast<std::uint64_t>(
      layer.out.elements() * lw.out_precision);
  r.activity.am_write_bits = packed_out;
  r.activity.transposer_bits = packed_out;

  m.storage.act_precision = layer.act_precision;
  m.storage.act_dynamic = cfg_.dynamic_act_precision;
  m.storage.out_precision = lw.out_precision;
  m.storage.window_quantum = 16;
  m.storage.filter_quantum = rows;
  m.block_compute = engine::conv_block_compute(cols, rows, ic_count, model);
  return m;
}

LayerModel LoomSimulator::model_fc(LayerWorkload& lw) const {
  const nn::Layer& layer = lw.layer();
  LayerModel m(layer);
  LayerResult& r = m.result;

  const int rows = cfg_.rows();
  const int cols = cfg_.cols();
  const int lanes = cfg_.lanes;
  const int bpc = cfg_.bits_per_cycle;
  const std::int64_t concurrent = static_cast<std::int64_t>(rows) * cols;
  const std::int64_t co = layer.out.c;
  const std::int64_t ci = layer.in.elements();
  const double pw = timing_weight_precision(lw);
  const double act_passes = static_cast<double>(kBasePrecision / bpc);

  // Choose the cascade slicing that minimizes cycles (ways = 1 disables
  // cascading; larger ways split an output's inner dimension over adjacent
  // SIPs at a reduction cost of ways-1 cycles per block).
  const FcCascadePlan plan = plan_fc_cascade(rows, cols, lanes, co, ci, pw,
                                             act_passes, cfg_.cascading);

  // Column-staggered weight loading: cols-1 cycles of initiation per layer
  // (§3.2 "after the first 15 cycles all SIPs are fully utilized").
  const double stagger = static_cast<double>(cols - 1);
  r.compute_cycles = static_cast<std::uint64_t>(std::llround(plan.cycles + stagger)) +
                     kPipelineFill;
  r.mean_act_precision = kBasePrecision;
  r.mean_weight_precision = pw;

  // Activity. Every output occupies `ways` SIPs; per round each of those
  // SIPs loads `lanes` fresh weights (pw bits each, no bus sharing — all
  // weights are distinct) and ANDs lanes x 16 x pw lane-bit products.
  const double sip_rounds = static_cast<double>(co) *
                            static_cast<double>(plan.ways) *
                            static_cast<double>(plan.rounds);
  r.activity.wr_bits_loaded =
      static_cast<std::uint64_t>(sip_rounds * static_cast<double>(lanes) * pw);
  r.activity.wm_read_bits = r.activity.wr_bits_loaded;
  // Each MAC streams 16 activation bits against pw weight bits.
  r.activity.sip_lane_bit_ops =
      static_cast<std::uint64_t>(static_cast<double>(r.macs) * 16.0 * pw);
  // Activation bus: lanes x cols x bpc bits per cycle while computing.
  r.activity.abin_read_bits = static_cast<std::uint64_t>(
      plan.cycles * static_cast<double>(lanes * cols * bpc));
  const std::uint64_t am_fetch =
      static_cast<std::uint64_t>(ci) * 16 * static_cast<std::uint64_t>(plan.blocks);
  r.activity.am_read_bits = am_fetch;
  r.activity.abin_write_bits = am_fetch;

  const std::uint64_t out_bits = static_cast<std::uint64_t>(co) * 16;
  r.activity.about_write_bits = out_bits;
  r.activity.about_read_bits = out_bits;
  r.activity.am_write_bits = out_bits;

  // Busy SIP-cycles: each output's `ways` SIPs run for its block's serial
  // cycles.
  const double busy = static_cast<double>(co) * static_cast<double>(plan.ways) *
                      static_cast<double>(plan.rounds) * act_passes * pw;
  const double slots = static_cast<double>(r.compute_cycles) *
                       static_cast<double>(concurrent);
  r.utilization = slots > 0.0 ? std::min(1.0, busy / slots) : 0.0;
  r.activity.sip_idle_lane_cycles = static_cast<std::uint64_t>(
      std::max(0.0, (slots - busy) * static_cast<double>(lanes)));
  set_fc_timing(m, plan);
  return m;
}

}  // namespace loom::sim
