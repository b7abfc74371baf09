// Cycle model of Loom (§3.2, Figure 2b): rows() x cols() SIPs; both
// operands bit-serial.
//
// Convolutional layers: rows <- filters, cols <- windows. Each chunk (one
// window block x one 16-activation input chunk) costs ceil(Pa/bpc) x Pw
// cycles, where Pa is the per-group precision the dynamic detector finds in
// the actual data and Pw is the layer weight precision (or, in §4.6 mode,
// the measured mean effective per-group precision under the paper's
// linear-scaling estimate).
//
// Fully-connected layers: one output per SIP (rows x cols concurrent),
// column-staggered weight-bit loading, each weight bit reused over the full
// 16 activation bits (16/bpc cycles), so FCL time scales with Pw only.
// SIP cascading slices outputs across `ways` SIPs when the layer has fewer
// outputs than SIPs (§3.2 "Processing Layers with Few Outputs").
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"

namespace loom::sim {

/// Cascade slicing of a fully-connected layer: the `ways`, block and round
/// counts minimizing cycles when an output's inner dimension is split over
/// `ways` adjacent SIPs at a reduction cost of ways-1 cycles per block
/// (§3.2 "Processing Layers with Few Outputs"). Shared by the analytic
/// models (Loom and Laconic FC layers) and the functional engine
/// (FunctionalLoomEngine::run_fc) so their FC cycle counts cannot drift.
struct FcCascadePlan {
  std::int64_t ways = 1;
  std::int64_t outputs_per_block = 0;  ///< rows * cols / ways
  std::int64_t blocks = 0;   ///< output blocks (fb)
  std::int64_t rounds = 0;   ///< input chunks per block at the chosen ways
  double act_passes = 0.0;
  double weight_precision = 0.0;
  double cycles = 0.0;       ///< block_cycles(blocks)

  /// Cycles of `n` output blocks: `rounds` input chunks of act_passes x Pw
  /// serial cycles each, then the ways-1 cascade reduction.
  [[nodiscard]] double block_cycles(std::int64_t n) const {
    return static_cast<double>(n) *
           (static_cast<double>(rounds) * act_passes * weight_precision +
            static_cast<double>(ways - 1));
  }
};

[[nodiscard]] FcCascadePlan plan_fc_cascade(std::int64_t rows,
                                            std::int64_t cols,
                                            std::int64_t lanes,
                                            std::int64_t out_channels,
                                            std::int64_t in_elements,
                                            double weight_precision,
                                            double act_passes, bool cascading);

/// FC tiling of a cascade plan: one tile filter quantum per output block,
/// each block priced by the plan's block formula.
void set_fc_timing(LayerModel& m, const FcCascadePlan& plan);

class LoomSimulator final : public Simulator {
 public:
  LoomSimulator(const arch::LoomConfig& cfg, const SimOptions& opts);

  [[nodiscard]] std::string name() const override;

 private:
  [[nodiscard]] LayerModel model_layer(LayerWorkload& lw) const override;
  [[nodiscard]] LayerModel model_conv(LayerWorkload& lw) const;
  [[nodiscard]] LayerModel model_fc(LayerWorkload& lw) const;
  [[nodiscard]] energy::AreaBreakdown area(
      const mem::MemorySystemConfig& mem) const override {
    return energy::loom_area(cfg_, mem);
  }
  /// Weight precision (possibly fractional) used for timing this layer.
  [[nodiscard]] double timing_weight_precision(LayerWorkload& lw) const;

  arch::LoomConfig cfg_;
};

}  // namespace loom::sim
