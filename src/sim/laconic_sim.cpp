#include "sim/laconic_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/loom_sim.hpp"

namespace loom::sim {

namespace {

/// The term-serial convolutional chunk model for one layer: chunk (g, wb,
/// ic) costs Ta x Tw cycles, Ta being the term count of its 16-window
/// detection group.
struct ConvChunks {
  ActTermTable term_table{};
  int cols = 0;
  double wt = 0.0;

  [[nodiscard]] int ta(std::int64_t g, std::int64_t wb, std::int64_t ic) const {
    return term_table.at(g, (wb * cols) / 16, ic);
  }
  [[nodiscard]] double cycles(int ta) const {
    return static_cast<double>(ta) * wt;
  }
  [[nodiscard]] double operator()(std::int64_t g, std::int64_t wb,
                                  std::int64_t ic) const {
    return cycles(ta(g, wb, ic));
  }
};

}  // namespace

LaconicSimulator::LaconicSimulator(const arch::LaconicConfig& cfg,
                                   const SimOptions& opts)
    : Simulator(opts, cfg.equiv_macs, /*bits_per_cycle=*/1,
                /*bit_packed=*/true),
      cfg_(cfg) {
  cfg_.validate();
}

std::string LaconicSimulator::name() const { return cfg_.to_string(); }

double LaconicSimulator::timing_weight_terms(LayerWorkload& lw) const {
  const LayerWorkload::WeightTermStats stats = lw.naf_weight_terms();
  // Estimate mode reproduces the old linear-scaling arithmetic: every lane
  // skips its own zero digits for free, no group synchronization. The
  // measured mode charges the synchronized sequencer walk.
  return cfg_.linear_term_scaling ? stats.mean_per_weight
                                  : stats.synced_per_group;
}

LayerModel LaconicSimulator::model_layer(LayerWorkload& lw) const {
  const nn::Layer& layer = lw.layer();
  LayerModel m = layer.kind == nn::LayerKind::kConv ? model_conv(lw)
                                                    : model_fc(lw);
  // Weights lay out dense bit-packed at the profile precision — the PE
  // extracts terms, storage stays positional (addressable offsets).
  m.storage.weights_bit_packed = true;
  m.storage.weight_precision = layer.weight_precision;
  return m;
}

LayerModel LaconicSimulator::model_conv(LayerWorkload& lw) const {
  const nn::Layer& layer = lw.layer();
  LayerModel m(layer);
  LayerResult& r = m.result;

  const int rows = cfg_.rows();
  const int cols = cfg_.cols();
  const int lanes = cfg_.lanes;

  const double wt = timing_weight_terms(lw);
  // Effectual ops fire at the per-weight mean regardless of how long the
  // synchronized walk takes; the difference shows up as idle lane slots.
  const double wt_effectual = lw.naf_weight_terms().mean_per_weight;
  const std::int64_t windows = layer.windows();
  const std::int64_t inner = layer.inner_length();
  const std::int64_t wb_count = ceil_div(windows, cols);
  const std::int64_t ic_count = ceil_div(inner, lanes);

  // Both tables come from the same OR planes at the same 16-window detector
  // granularity: term counts drive the cycles, detected precisions drive
  // the positional AM/ABin accounting (storage cannot address terms).
  const ConvChunks model{.term_table = lw.act_group_term_table(16),
                         .cols = cols,
                         .wt = wt};
  const ActPrecisionTable pa_table = lw.act_group_precision_table(16);
  LOOM_EXPECTS(ic_count <= model.term_table.ic_count());

  double cycles = 0.0;
  double term_ops = 0.0;
  double ta_weighted = 0.0;
  std::uint64_t chunks = 0;

  for (int g = 0; g < layer.groups; ++g) {
    const std::int64_t cog = layer.group_out_channels();
    const std::int64_t fb = ceil_div(cog, rows);
    const auto dcog = static_cast<double>(cog);
    // Weights stream dense from the WM at the profile precision; the PE
    // extracts the NAF digits on the fly (hoisted, invariant per chunk).
    r.activity.wm_read_bits +=
        static_cast<std::uint64_t>(dcog * static_cast<double>(lanes) *
                                   static_cast<double>(layer.weight_precision)) *
        static_cast<std::uint64_t>(wb_count * ic_count);
    for (std::int64_t wb = 0; wb < wb_count; ++wb) {
      const std::int64_t cols_used =
          std::min<std::int64_t>(cols, windows - wb * cols);
      r.activity.wr_bits_loaded +=
          static_cast<std::uint64_t>(
              dcog * static_cast<double>(cols_used * lanes) *
              static_cast<double>(layer.weight_precision)) *
          static_cast<std::uint64_t>(ic_count);
      r.activity.detector_values +=
          static_cast<std::uint64_t>(cols_used * inner);
      for (std::int64_t ic = 0; ic < ic_count; ++ic) {
        const std::int64_t lanes_used =
            std::min<std::int64_t>(lanes, inner - ic * lanes);
        const int ta = model.ta(g, wb, ic);
        const int pa = pa_table.at(g, (wb * cols) / 16, ic);
        const double chunk_cycles = model.cycles(ta);

        cycles += chunk_cycles * static_cast<double>(fb);
        ta_weighted += ta;
        ++chunks;

        // Effectual term-pair operations over the active lanes (summed over
        // the fb filter blocks the active rows equal cog exactly).
        term_ops += dcog * static_cast<double>(cols_used * lanes_used) *
                    static_cast<double>(ta) * wt_effectual;
        // Serialized activation terms broadcast per synchronized pass.
        r.activity.abin_read_bits += static_cast<std::uint64_t>(
            static_cast<double>(cols_used * lanes * ta) * wt *
            static_cast<double>(fb));
        // AM -> ABin fetch stays positional at the detected precision.
        const std::uint64_t am_bits =
            static_cast<std::uint64_t>(cols_used * lanes_used * pa * fb);
        r.activity.am_read_bits += am_bits;
        r.activity.abin_write_bits += am_bits;
      }
    }
  }

  r.compute_cycles =
      static_cast<std::uint64_t>(std::llround(cycles)) + kPipelineFill;
  r.mean_act_precision =
      chunks ? ta_weighted / static_cast<double>(chunks) : 0.0;
  r.mean_weight_precision = wt;
  r.activity.laconic_lane_term_ops =
      static_cast<std::uint64_t>(std::llround(term_ops));
  // Every provisioned lane slot either fires an effectual term pair or
  // idles waiting for its group's slowest lane.
  const double lane_slots = static_cast<double>(r.compute_cycles) *
                            static_cast<double>(rows) *
                            static_cast<double>(cols) *
                            static_cast<double>(lanes);
  r.utilization = lane_slots > 0.0 ? std::min(1.0, term_ops / lane_slots) : 0.0;
  r.activity.laconic_idle_lane_cycles =
      static_cast<std::uint64_t>(std::max(0.0, lane_slots - term_ops));

  const std::uint64_t out_bits =
      static_cast<std::uint64_t>(layer.out.elements()) * 16;
  r.activity.about_write_bits = out_bits;
  r.activity.about_read_bits = out_bits;
  const std::uint64_t packed_out =
      static_cast<std::uint64_t>(layer.out.elements() * lw.out_precision);
  r.activity.am_write_bits = packed_out;
  r.activity.transposer_bits = packed_out;

  // Activations lay out positionally at the detected precision, exactly
  // like LM1b's; only compute follows the term tables.
  m.storage.act_precision = layer.act_precision;
  m.storage.act_dynamic = true;
  m.storage.out_precision = lw.out_precision;
  m.storage.window_quantum = 16;
  m.storage.filter_quantum = rows;
  m.block_compute = engine::conv_block_compute(cols, rows, ic_count, model);
  return m;
}

LayerModel LaconicSimulator::model_fc(LayerWorkload& lw) const {
  const nn::Layer& layer = lw.layer();
  LayerModel m(layer);
  LayerResult& r = m.result;

  const int rows = cfg_.rows();
  const int cols = cfg_.cols();
  const int lanes = cfg_.lanes;
  const std::int64_t concurrent = static_cast<std::int64_t>(rows) * cols;
  const std::int64_t co = layer.out.c;
  const std::int64_t ci = layer.in.elements();
  const double wt = timing_weight_terms(lw);
  const double wt_effectual = lw.naf_weight_terms().mean_per_weight;
  // The FC path has no OR planes, so activations stream dense (16 passes);
  // only the weight side is term-serial.
  const double act_passes = static_cast<double>(kBasePrecision);

  const FcCascadePlan plan = plan_fc_cascade(rows, cols, lanes, co, ci, wt,
                                             act_passes, cfg_.cascading);

  const double stagger = static_cast<double>(cols - 1);
  r.compute_cycles =
      static_cast<std::uint64_t>(std::llround(plan.cycles + stagger)) +
      kPipelineFill;
  r.mean_act_precision = kBasePrecision;
  r.mean_weight_precision = wt;

  const double sip_rounds = static_cast<double>(co) *
                            static_cast<double>(plan.ways) *
                            static_cast<double>(plan.rounds);
  r.activity.wr_bits_loaded = static_cast<std::uint64_t>(
      sip_rounds * static_cast<double>(lanes) *
      static_cast<double>(layer.weight_precision));
  r.activity.wm_read_bits = r.activity.wr_bits_loaded;
  // Each MAC walks 16 activation passes against the weight's effectual terms.
  const double term_ops =
      static_cast<double>(r.macs) * act_passes * wt_effectual;
  r.activity.laconic_lane_term_ops =
      static_cast<std::uint64_t>(std::llround(term_ops));
  r.activity.abin_read_bits = static_cast<std::uint64_t>(
      plan.cycles * static_cast<double>(lanes * cols));
  const std::uint64_t am_fetch = static_cast<std::uint64_t>(ci) * 16 *
                                 static_cast<std::uint64_t>(plan.blocks);
  r.activity.am_read_bits = am_fetch;
  r.activity.abin_write_bits = am_fetch;

  const std::uint64_t out_bits = static_cast<std::uint64_t>(co) * 16;
  r.activity.about_write_bits = out_bits;
  r.activity.about_read_bits = out_bits;
  r.activity.am_write_bits = out_bits;

  const double lane_slots = static_cast<double>(r.compute_cycles) *
                            static_cast<double>(concurrent) *
                            static_cast<double>(lanes);
  r.utilization = lane_slots > 0.0 ? std::min(1.0, term_ops / lane_slots) : 0.0;
  r.activity.laconic_idle_lane_cycles =
      static_cast<std::uint64_t>(std::max(0.0, lane_slots - term_ops));
  set_fc_timing(m, plan);
  return m;
}

}  // namespace loom::sim
