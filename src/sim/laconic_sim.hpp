// Cycle model of a term-serial accelerator in the Pragmatic/Laconic lineage
// (the §6 future-work direction): the same rows() x cols() SIP grid as LM1b,
// but each lane processes one *effectual* activation-term x weight-term pair
// per cycle instead of one bit-plane pair, so cycles scale with popcounts
// rather than bit-widths.
//
// Convolutional layers: rows <- filters, cols <- windows. Each chunk (one
// window block x one 16-activation input chunk) costs Ta x Tw cycles, where
//  * Ta is the chunk's activation term count — the popcount of the detection
//    group's OR mask (LayerWorkload::act_group_term_table over the same OR
//    planes the precision detector uses). The group sequencer synchronizes
//    at the slowest lane: it walks every essential bit-plane, i.e. every
//    position at which *any* of the 256 activations has a one.
//  * Tw is the measured mean synchronized weight-group term length — the
//    popcount of the union of NAF digit positions over a 16-weight group
//    (LayerWorkload::naf_weight_terms().synced_per_group). In the
//    LaconicConfig::linear_term_scaling estimate mode it is instead the mean
//    NAF digits *per weight*, the optimistic arithmetic bench_sparsity's old
//    linear-scaling estimates applied (every lane independent, no
//    synchronization) — kept so the estimate-vs-measured delta is visible.
//
// Fully-connected layers: the FC path has no OR planes, so activations
// stream dense (16 passes) and only the weight side is term-serial; the
// cascade slicing is shared with Loom (plan_fc_cascade).
//
// Storage and memory timing are positional, exactly like LM1b: activations
// lay out bit-packed at the *detected precision* (terms cannot be addressed
// without offsets, so AM/ABin traffic follows needed_bits, not popcounts)
// and weights dense at the profile precision — term extraction happens at
// the PE. Only compute cycles follow the term tables.
#pragma once

#include "sim/simulator.hpp"

namespace loom::sim {

class LaconicSimulator final : public Simulator {
 public:
  LaconicSimulator(const arch::LaconicConfig& cfg, const SimOptions& opts);

  [[nodiscard]] std::string name() const override;

 private:
  [[nodiscard]] LayerModel model_layer(LayerWorkload& lw) const override;
  [[nodiscard]] LayerModel model_conv(LayerWorkload& lw) const;
  [[nodiscard]] LayerModel model_fc(LayerWorkload& lw) const;
  [[nodiscard]] energy::AreaBreakdown area(
      const mem::MemorySystemConfig& mem) const override {
    return energy::laconic_area(cfg_, mem);
  }
  /// Weight-side term count (possibly fractional) used for timing.
  [[nodiscard]] double timing_weight_terms(LayerWorkload& lw) const;

  arch::LaconicConfig cfg_;
};

}  // namespace loom::sim
