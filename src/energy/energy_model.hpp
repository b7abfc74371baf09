// Turns activity counters into energy. Evaluation is purely multiplicative
// (activity x coefficient) plus an area-proportional leakage term, so every
// reported joule traces back to simulated events.
#pragma once

#include "energy/activity.hpp"
#include "energy/coefficients.hpp"

namespace loom::energy {

struct EnergyBreakdown {
  double compute_pj = 0.0;     ///< MACs / SIP lanes / Stripes lanes
  double registers_pj = 0.0;   ///< weight-register loads
  double detector_pj = 0.0;
  double transposer_pj = 0.0;
  double sram_pj = 0.0;        ///< ABin/ABout
  double edram_pj = 0.0;       ///< AM/WM
  double dram_pj = 0.0;
  double leakage_pj = 0.0;

  [[nodiscard]] double total_pj() const noexcept {
    return compute_pj + registers_pj + detector_pj + transposer_pj + sram_pj +
           edram_pj + dram_pj + leakage_pj;
  }
  [[nodiscard]] double total_onchip_pj() const noexcept {
    return total_pj() - dram_pj;
  }
};

class EnergyModel {
 public:
  /// `area_mm2` drives the leakage term; `bits_per_cycle` selects the SIP
  /// lane energy of the LM1b/2b/4b variants (1 for other architectures).
  EnergyModel(const EnergyCoefficients& coeffs, double area_mm2,
              int bits_per_cycle = 1);

  [[nodiscard]] EnergyBreakdown evaluate(const Activity& activity) const noexcept;

 private:
  EnergyCoefficients coeffs_;
  double area_mm2_;
  int bits_per_cycle_;
};

}  // namespace loom::energy
