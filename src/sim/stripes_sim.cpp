#include "sim/stripes_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace loom::sim {

namespace {

/// Stripes' convolutional chunk model for one layer: chunk (g, wb, ic)
/// streams its activations bit-serially at Pa — detected per window block
/// for DStripes, the profile Pa otherwise — for Pa cycles.
struct ConvChunks {
  ActPrecisionTable pa_table{};  ///< detected precisions (DStripes only)
  bool dynamic = false;
  int profile_pa = 0;

  [[nodiscard]] int pa(std::int64_t g, std::int64_t wb, std::int64_t ic) const {
    return dynamic ? pa_table.at(g, wb, ic) : profile_pa;
  }
  [[nodiscard]] static double cycles(int pa) { return static_cast<double>(pa); }
  [[nodiscard]] double operator()(std::int64_t g, std::int64_t wb,
                                  std::int64_t ic) const {
    return cycles(pa(g, wb, ic));
  }
};

}  // namespace

StripesSimulator::StripesSimulator(const arch::StripesConfig& cfg,
                                   const SimOptions& opts)
    : Simulator(opts, cfg.equiv_macs, /*bits_per_cycle=*/1,
                /*bit_packed=*/true),
      cfg_(cfg) {
  cfg_.validate();
}

LayerModel StripesSimulator::model_layer(LayerWorkload& lw) const {
  const nn::Layer& layer = lw.layer();
  LayerModel m(layer);
  LayerResult& r = m.result;
  r.mean_weight_precision = kBasePrecision;  // weights stay bit-parallel

  const int lanes = cfg_.lanes;
  const int k = cfg_.filters();
  const int windows_par = cfg_.windows;

  if (layer.kind == nn::LayerKind::kConv) {
    const std::int64_t windows = layer.windows();
    const std::int64_t inner = layer.inner_length();
    const std::int64_t wb_count = ceil_div(windows, windows_par);
    const std::int64_t ic_count = ceil_div(inner, lanes);

    // Whole per-layer precision table from the OR planes; the loops below
    // are plain array reads.
    ConvChunks model{.dynamic = cfg_.dynamic_act_precision,
                     .profile_pa = layer.act_precision};
    if (model.dynamic) {
      model.pa_table = lw.act_group_precision_table(windows_par);
      // One-time loop-bound contract for the whole layer: looser loop
      // bounds than the table's extents must fail loudly, not read past it.
      LOOM_EXPECTS(ic_count <= model.pa_table.ic_count() &&
                   wb_count <= model.pa_table.wb_count());
    }

    double cycles = 0.0;
    double busy = 0.0;
    double pa_weighted = 0.0;
    std::uint64_t chunks = 0;
    for (int g = 0; g < layer.groups; ++g) {
      const std::int64_t cog = layer.group_out_channels();
      const std::int64_t fb = ceil_div(cog, k);
      const auto dcog = static_cast<double>(cog);
      // Weight-memory reads are invariant per chunk (integer-exact hoist).
      r.activity.wm_read_bits +=
          static_cast<std::uint64_t>(dcog * static_cast<double>(lanes) * 16.0) *
          static_cast<std::uint64_t>(wb_count * ic_count);
      for (std::int64_t wb = 0; wb < wb_count; ++wb) {
        const std::int64_t w_used =
            std::min<std::int64_t>(windows_par, windows - wb * windows_par);
        // Precision-independent accounting hoisted out of the chunk loop
        // (integer-exact: identical truncated value per ic chunk, and the
        // lanes_used tail sums to `inner` across the ic chunks).
        // Weights load bit-parallel into the per-lane registers once per
        // chunk and stay for the pa serial cycles.
        r.activity.wr_bits_loaded += static_cast<std::uint64_t>(
                                         dcog * static_cast<double>(w_used * lanes) * 16.0) *
                                     static_cast<std::uint64_t>(ic_count);
        const std::uint64_t am_bits =
            static_cast<std::uint64_t>(w_used * layer.act_precision * fb * inner);
        r.activity.am_read_bits += am_bits;
        r.activity.abin_write_bits += am_bits;
        if (cfg_.dynamic_act_precision) {
          r.activity.detector_values +=
              static_cast<std::uint64_t>(w_used * inner);
        }
        for (std::int64_t ic = 0; ic < ic_count; ++ic) {
          const std::int64_t lanes_used =
              std::min<std::int64_t>(lanes, inner - ic * lanes);
          const int pa = model.pa(g, wb, ic);
          cycles += ConvChunks::cycles(pa) * static_cast<double>(fb);
          pa_weighted += pa;
          ++chunks;

          // Active filters summed over the fb blocks equal cog exactly.
          r.activity.stripes_lane_ops += static_cast<std::uint64_t>(
              dcog * static_cast<double>(w_used * lanes_used) *
              static_cast<double>(pa));
          busy += dcog * static_cast<double>(w_used) *
                  (static_cast<double>(lanes_used) / lanes) *
                  static_cast<double>(pa);
          r.activity.abin_read_bits += static_cast<std::uint64_t>(
              static_cast<double>(w_used * lanes * pa) *
              static_cast<double>(fb));
        }
      }
    }
    r.compute_cycles =
        static_cast<std::uint64_t>(std::llround(cycles)) + kPipelineFill;
    r.mean_act_precision = chunks ? pa_weighted / static_cast<double>(chunks) : 0.0;
    r.utilization =
        busy / (static_cast<double>(r.compute_cycles) *
                static_cast<double>(k) * static_cast<double>(windows_par));
    const double lane_slots = static_cast<double>(r.compute_cycles) *
                              static_cast<double>(k) *
                              static_cast<double>(windows_par) *
                              static_cast<double>(lanes);
    r.activity.stripes_idle_lane_cycles = static_cast<std::uint64_t>(
        std::max(0.0, lane_slots - busy * static_cast<double>(lanes)));

    // Stripes packs activations (not weights): the AM/DRAM activation
    // layout follows the profile (or detected) precision, weights stay
    // 16-bit rows.
    m.storage.act_precision = layer.act_precision;
    m.storage.act_dynamic = cfg_.dynamic_act_precision;
    m.storage.out_precision = lw.out_precision;
    m.storage.window_quantum = windows_par;
    m.storage.filter_quantum = k;
    m.block_compute =
        engine::conv_block_compute(windows_par, k, ic_count, model);
  } else {
    // FCL: one "window" of data; outputs map across the filter x window
    // units; 16 serial cycles per 16-activation chunk — no speedup over the
    // baseline (Table 2's Stripes FCL Perf = 1.00).
    const std::int64_t ci = layer.in.elements();
    const std::int64_t co = layer.out.c;
    const std::int64_t concurrent = static_cast<std::int64_t>(k) * windows_par;
    const std::int64_t fb = ceil_div(co, concurrent);
    const std::int64_t ic_count = ceil_div(ci, lanes);
    const auto block_cycles = [ic_count](std::int64_t blocks) {
      return static_cast<double>(blocks) * static_cast<double>(ic_count) * 16.0;
    };
    r.compute_cycles =
        static_cast<std::uint64_t>(block_cycles(fb)) + kPipelineFill;
    r.mean_act_precision = kBasePrecision;
    r.activity.stripes_lane_ops =
        static_cast<std::uint64_t>(r.macs) * 16;
    r.activity.wr_bits_loaded =
        static_cast<std::uint64_t>(layer.weight_count()) * 16;
    r.activity.wm_read_bits = r.activity.wr_bits_loaded;
    r.activity.abin_read_bits = r.compute_cycles * static_cast<std::uint64_t>(lanes);
    const std::uint64_t am_fetch =
        static_cast<std::uint64_t>(ci) * 16 * static_cast<std::uint64_t>(fb);
    r.activity.am_read_bits = am_fetch;
    r.activity.abin_write_bits = am_fetch;
    r.utilization =
        static_cast<double>(r.macs) * 16.0 /
        (static_cast<double>(r.compute_cycles) * static_cast<double>(concurrent) *
         static_cast<double>(lanes));
    const double lane_slots = static_cast<double>(r.compute_cycles) *
                              static_cast<double>(concurrent) *
                              static_cast<double>(lanes);
    r.activity.stripes_idle_lane_cycles = static_cast<std::uint64_t>(
        std::max(0.0, lane_slots - static_cast<double>(r.macs) * 16.0));

    // Weights and activations stay 16-bit; tiles are blocks of the
    // concurrent filter x window units.
    m.storage.window_quantum = 1;
    m.storage.filter_quantum = concurrent;
    m.block_compute = [=](const mem::TileExtent& t) {
      return block_cycles(ceil_div(t.filter_count(), concurrent));
    };
  }

  const std::uint64_t out_bits =
      static_cast<std::uint64_t>(layer.out.elements()) * 16;
  r.activity.about_write_bits = out_bits;
  r.activity.about_read_bits = out_bits;
  // Stripes packs activations (not weights) in the AM.
  const int out_prec =
      layer.kind == nn::LayerKind::kConv ? lw.out_precision : kBasePrecision;
  r.activity.am_write_bits =
      static_cast<std::uint64_t>(layer.out.elements() * out_prec);
  r.activity.transposer_bits = r.activity.am_write_bits;
  return m;
}

}  // namespace loom::sim
