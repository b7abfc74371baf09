#include "energy/area_model.hpp"

#include <cstdint>

namespace loom::energy {

namespace {

/// ABin / ABout SRAM buffer sizes (§4.5), the same for every architecture.
constexpr std::int64_t kAbinBytes = 8 << 10;
constexpr std::int64_t kAboutBytes = 8 << 10;

double buffers_mm2(const AreaCoefficients& c) {
  const double kb = static_cast<double>(kAbinBytes + kAboutBytes) / 1024.0;
  return kb * c.sram_mm2_per_kb;
}

double edram_mm2(const mem::MemorySystemConfig& mem, const AreaCoefficients& c) {
  const double kb = static_cast<double>(mem.am_bytes + mem.wm_bytes) / 1024.0;
  return kb * c.edram_mm2_per_kb;
}

}  // namespace

AreaBreakdown dpnn_area(const arch::DpnnConfig& cfg,
                        const mem::MemorySystemConfig& mem,
                        const AreaCoefficients& c) {
  AreaBreakdown a;
  a.compute_mm2 = static_cast<double>(cfg.equiv_macs) * c.mac16_mm2;
  a.support_mm2 = 0.0;
  a.sram_mm2 = buffers_mm2(c);
  a.edram_mm2 = edram_mm2(mem, c);
  return a;
}

AreaBreakdown loom_area(const arch::LoomConfig& cfg,
                        const mem::MemorySystemConfig& mem,
                        const AreaCoefficients& c) {
  AreaBreakdown a;
  const double sip_mm2 =
      c.sip_base_mm2 + c.sip_per_bit_mm2 * static_cast<double>(cfg.bits_per_cycle);
  a.compute_mm2 = static_cast<double>(cfg.sips()) * sip_mm2;
  const double detector_groups =
      static_cast<double>(cfg.lanes * cfg.cols()) / 256.0;
  a.support_mm2 = detector_groups * c.detector_mm2_per_256 + c.transposer_mm2 +
                  c.dispatcher_mm2;
  a.sram_mm2 = buffers_mm2(c);
  a.edram_mm2 = edram_mm2(mem, c);
  return a;
}

AreaBreakdown laconic_area(const arch::LaconicConfig& cfg,
                           const mem::MemorySystemConfig& mem,
                           const AreaCoefficients& c) {
  AreaBreakdown a;
  a.compute_mm2 = static_cast<double>(cfg.sips()) * c.laconic_sip_mm2;
  // Same detector granularity as LM1b (the term counts come out of the same
  // OR planes), plus transposer and dispatcher for the serialized streams.
  const double detector_groups =
      static_cast<double>(cfg.lanes * cfg.cols()) / 256.0;
  a.support_mm2 = detector_groups * c.detector_mm2_per_256 + c.transposer_mm2 +
                  c.dispatcher_mm2;
  a.sram_mm2 = buffers_mm2(c);
  a.edram_mm2 = edram_mm2(mem, c);
  return a;
}

AreaBreakdown stripes_area(const arch::StripesConfig& cfg,
                           const mem::MemorySystemConfig& mem,
                           const AreaCoefficients& c) {
  AreaBreakdown a;
  const double lanes = static_cast<double>(cfg.filters()) *
                       static_cast<double>(cfg.windows) *
                       static_cast<double>(cfg.lanes);
  a.compute_mm2 = lanes * c.stripes_unit_mm2;
  const double detector_groups =
      cfg.dynamic_act_precision
          ? static_cast<double>(cfg.lanes * cfg.windows) / 256.0
          : 0.0;
  a.support_mm2 = detector_groups * c.detector_mm2_per_256 + c.dispatcher_mm2;
  a.sram_mm2 = buffers_mm2(c);
  a.edram_mm2 = edram_mm2(mem, c);
  return a;
}

}  // namespace loom::energy
