// Cycle model of the bit-parallel baseline (DPNN, Figure 2a): per cycle,
// `act_lanes` 16-bit activations broadcast to filters() inner-product
// units. Every weighted layer walks windows x input chunks x filter blocks,
// one cycle each; a fully-connected layer is one group of one window.
#pragma once

#include "sim/simulator.hpp"

namespace loom::sim {

class DpnnSimulator final : public Simulator {
 public:
  DpnnSimulator(const arch::DpnnConfig& cfg, const SimOptions& opts);

  [[nodiscard]] std::string name() const override { return cfg_.to_string(); }

 private:
  [[nodiscard]] LayerModel model_layer(LayerWorkload& lw) const override;
  [[nodiscard]] energy::AreaBreakdown area(
      const mem::MemorySystemConfig& mem) const override {
    return energy::dpnn_area(cfg_, mem);
  }

  arch::DpnnConfig cfg_;
};

}  // namespace loom::sim
