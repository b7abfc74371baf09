// Cycle model of Stripes [7] and DStripes [5+7]: bit-serial activations
// against bit-parallel 16-bit weights; 16 concurrent windows per filter so
// filter parallelism matches DPNN's. Convolutional chunks cost Pa cycles
// (the per-group detected Pa for DStripes); fully-connected layers gain
// nothing over the baseline because weights stay bit-parallel.
#pragma once

#include "sim/simulator.hpp"

namespace loom::sim {

class StripesSimulator final : public Simulator {
 public:
  StripesSimulator(const arch::StripesConfig& cfg, const SimOptions& opts);

  [[nodiscard]] std::string name() const override { return cfg_.to_string(); }

 private:
  [[nodiscard]] LayerModel model_layer(LayerWorkload& lw) const override;
  [[nodiscard]] energy::AreaBreakdown area(
      const mem::MemorySystemConfig& mem) const override {
    return energy::stripes_area(cfg_, mem);
  }

  arch::StripesConfig cfg_;
};

}  // namespace loom::sim
