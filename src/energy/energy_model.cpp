#include "energy/energy_model.hpp"

#include "common/error.hpp"

namespace loom::energy {

EnergyModel::EnergyModel(const EnergyCoefficients& coeffs, double area_mm2,
                         int bits_per_cycle)
    : coeffs_(coeffs), area_mm2_(area_mm2), bits_per_cycle_(bits_per_cycle) {
  LOOM_EXPECTS(area_mm2 > 0.0);
  LOOM_EXPECTS(bits_per_cycle == 1 || bits_per_cycle == 2 || bits_per_cycle == 4);
}

EnergyBreakdown EnergyModel::evaluate(const Activity& a) const noexcept {
  EnergyBreakdown e;
  e.compute_pj =
      static_cast<double>(a.mac_ops) * coeffs_.mac16_pj +
      static_cast<double>(a.sip_lane_bit_ops) * coeffs_.sip_lane_bit_pj(bits_per_cycle_) +
      static_cast<double>(a.stripes_lane_ops) * coeffs_.stripes_lane_pj +
      static_cast<double>(a.sip_idle_lane_cycles) * coeffs_.sip_idle_lane_pj +
      static_cast<double>(a.stripes_idle_lane_cycles) * coeffs_.stripes_idle_lane_pj +
      static_cast<double>(a.mac_idle_cycles) * coeffs_.mac_idle_pj +
      static_cast<double>(a.laconic_lane_term_ops) * coeffs_.laconic_lane_term_pj +
      static_cast<double>(a.laconic_idle_lane_cycles) * coeffs_.laconic_idle_lane_pj;
  e.registers_pj = static_cast<double>(a.wr_bits_loaded) * coeffs_.wr_load_bit_pj;
  e.detector_pj = static_cast<double>(a.detector_values) * coeffs_.detector_value_pj;
  e.transposer_pj = static_cast<double>(a.transposer_bits) * coeffs_.transposer_bit_pj;
  e.sram_pj =
      static_cast<double>(a.abin_read_bits + a.about_read_bits) * coeffs_.sram_read_bit_pj +
      static_cast<double>(a.abin_write_bits + a.about_write_bits) * coeffs_.sram_write_bit_pj;
  e.edram_pj =
      static_cast<double>(a.am_read_bits + a.wm_read_bits) * coeffs_.edram_read_bit_pj +
      static_cast<double>(a.am_write_bits + a.wm_write_bits) * coeffs_.edram_write_bit_pj;
  e.dram_pj =
      static_cast<double>(a.dram_read_bits + a.dram_write_bits) * coeffs_.dram_bit_pj;
  e.leakage_pj = static_cast<double>(a.cycles) * area_mm2_ *
                 coeffs_.leakage_pj_per_mm2_cycle;
  return e;
}

}  // namespace loom::energy
