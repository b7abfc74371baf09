// Energy and area models: linearity in activity, leakage accounting, and
// the §4.4 area-ratio calibration bands.
#include <gtest/gtest.h>

#include "arch/config.hpp"
#include "common/error.hpp"
#include "energy/area_model.hpp"
#include "energy/energy_model.hpp"
#include "mem/hierarchy.hpp"

namespace loom::energy {
namespace {

TEST(EnergyModel, LinearInActivity) {
  const EnergyModel model(default_energy_coefficients(), 10.0, 1);
  Activity a;
  a.mac_ops = 1000;
  a.sip_lane_bit_ops = 5000;
  a.cycles = 100;
  const double e1 = model.evaluate(a).total_pj();
  a.mac_ops *= 2;
  a.sip_lane_bit_ops *= 2;
  a.cycles *= 2;
  const double e2 = model.evaluate(a).total_pj();
  EXPECT_NEAR(e2, 2.0 * e1, 1e-9);
}

TEST(EnergyModel, LeakageProportionalToAreaAndCycles) {
  Activity a;
  a.cycles = 1000;
  const EnergyModel small(default_energy_coefficients(), 1.0, 1);
  const EnergyModel big(default_energy_coefficients(), 4.0, 1);
  EXPECT_NEAR(big.evaluate(a).leakage_pj, 4.0 * small.evaluate(a).leakage_pj,
              1e-9);
}

TEST(EnergyModel, SipLaneEnergyAmortizesWithBits) {
  const auto& c = default_energy_coefficients();
  EXPECT_GT(c.sip_lane_bit_pj(1), c.sip_lane_bit_pj(2));
  EXPECT_GT(c.sip_lane_bit_pj(2), c.sip_lane_bit_pj(4));
  EXPECT_GT(c.sip_lane_bit_pj(4), c.sip_lane_base_pj);
}

TEST(EnergyModel, BreakdownSumsToTotal) {
  const EnergyModel model(default_energy_coefficients(), 5.0, 2);
  Activity a;
  a.mac_ops = 10;
  a.sip_lane_bit_ops = 20;
  a.stripes_lane_ops = 30;
  a.wr_bits_loaded = 40;
  a.detector_values = 50;
  a.transposer_bits = 60;
  a.abin_read_bits = 70;
  a.about_write_bits = 80;
  a.am_read_bits = 90;
  a.wm_read_bits = 100;
  a.dram_read_bits = 110;
  a.cycles = 120;
  const auto e = model.evaluate(a);
  EXPECT_NEAR(e.total_pj(),
              e.compute_pj + e.registers_pj + e.detector_pj + e.transposer_pj +
                  e.sram_pj + e.edram_pj + e.dram_pj + e.leakage_pj,
              1e-12);
  EXPECT_GT(e.total_onchip_pj(), 0.0);
  EXPECT_LT(e.total_onchip_pj(), e.total_pj());
}

TEST(EnergyModel, AveragePowerAtOneGhz) {
  const EnergyModel model(default_energy_coefficients(), 1.0, 1);
  Activity a;
  a.cycles = 1000;
  a.mac_ops = 1000;  // 4 pJ each -> 4000 pJ + leakage 2500 pJ
  // 6.5 nJ over 1 us -> 6.5 mW: at 1 GHz, pJ per cycle is mW.
  const double watts =
      model.evaluate(a).total_pj() / static_cast<double>(a.cycles) * 1e-3;
  EXPECT_NEAR(watts, 6.5e-3, 1e-4);
}

TEST(AreaModel, Section44CalibrationBands) {
  // §4.4: LM1b 1.34x, LM2b 1.25x, LM4b 1.16x over DPNN (logic + buffers).
  const auto mem_dpnn = mem::default_memory_config(128, false);
  const auto mem_lm = mem::default_memory_config(128, true);
  const double dpnn = dpnn_area(arch::DpnnConfig{}, mem_dpnn).core_mm2();

  arch::LoomConfig lm1;
  arch::LoomConfig lm2;
  lm2.bits_per_cycle = 2;
  arch::LoomConfig lm4;
  lm4.bits_per_cycle = 4;
  const double r1 = loom_area(lm1, mem_lm).core_mm2() / dpnn;
  const double r2 = loom_area(lm2, mem_lm).core_mm2() / dpnn;
  const double r4 = loom_area(lm4, mem_lm).core_mm2() / dpnn;

  EXPECT_NEAR(r1, 1.34, 0.10);
  EXPECT_NEAR(r2, 1.25, 0.10);
  EXPECT_NEAR(r4, 1.16, 0.10);
  EXPECT_GT(r1, r2);
  EXPECT_GT(r2, r4);
  EXPECT_GT(r4, 1.0);
}

TEST(AreaModel, StripesOverheadBand) {
  const auto mem_s = mem::default_memory_config(128, true);
  const auto mem_d = mem::default_memory_config(128, false);
  arch::StripesConfig s;
  const double ratio = stripes_area(s, mem_s).core_mm2() /
                       dpnn_area(arch::DpnnConfig{}, mem_d).core_mm2();
  EXPECT_GT(ratio, 1.1);
  EXPECT_LT(ratio, 1.6);
}

TEST(AreaModel, MemoriesDominateTotalArea) {
  const auto mem_cfg = mem::default_memory_config(128, false);
  const auto a = dpnn_area(arch::DpnnConfig{}, mem_cfg);
  EXPECT_GT(a.edram_mm2, a.core_mm2());
  EXPECT_GT(a.total_mm2(), a.core_mm2());
}

TEST(AreaModel, LoomTotalAreaScalesWithE) {
  const auto mem32 = mem::default_memory_config(32, true);
  const auto mem512 = mem::default_memory_config(512, true);
  arch::LoomConfig small;
  small.equiv_macs = 32;
  arch::LoomConfig big;
  big.equiv_macs = 512;
  EXPECT_GT(loom_area(big, mem512).total_mm2(),
            4.0 * loom_area(small, mem32).total_mm2() / 2.0);
}

TEST(EnergyModel, InvalidConstructionThrows) {
  EXPECT_THROW(EnergyModel(default_energy_coefficients(), -1.0, 1),
               loom::ContractViolation);
  EXPECT_THROW(EnergyModel(default_energy_coefficients(), 1.0, 3),
               loom::ContractViolation);
}

}  // namespace
}  // namespace loom::energy
