#include "sim/simulator.hpp"

#include "sim/dpnn_sim.hpp"
#include "sim/laconic_sim.hpp"
#include "sim/loom_sim.hpp"
#include "sim/stripes_sim.hpp"

namespace loom::sim {

LayerResult Simulator::simulate_layer(LayerWorkload& lw,
                                      engine::TimingCore& core) const {
  LayerModel m = model_layer(lw);
  LayerResult& r = m.result;
  if (opts_.model_offchip) core.apply(r, lw, m.storage, m.block_compute);
  r.activity.cycles = r.cycles();
  return std::move(r);
}

RunResult Simulator::run(NetworkWorkload& workload) const {
  RunResult result;
  result.arch_name = name();
  result.network = workload.network().name();
  result.bits_per_cycle = bits_per_cycle_;

  // The §4.5 memory configuration at this scale, with the capacity
  // overrides and DRAM channel applied.
  mem::MemorySystemConfig mem_cfg =
      mem::default_memory_config(equiv_macs_, bit_packed_);
  if (opts_.am_bytes > 0) mem_cfg.am_bytes = opts_.am_bytes;
  if (opts_.wm_bytes > 0) mem_cfg.wm_bytes = opts_.wm_bytes;
  mem_cfg.dram = opts_.dram;
  engine::TimingCore core(mem_cfg);

  result.area = area(mem_cfg);

  for (std::size_t i = 0; i < workload.network().size(); ++i) {
    if (!workload.network().layer(i).has_weights()) continue;
    result.layers.push_back(simulate_layer(workload.layer(i), core));
  }

  // Any drain tail still on the channel past the final compute is charged
  // to the last layer so RunResult::cycles() covers the whole execution.
  // Unconstrained runs have none.
  const std::uint64_t tail = core.finish();
  if (tail != 0 && !result.layers.empty()) {
    LayerResult& last = result.layers.back();
    last.stall_cycles += tail;
    last.activity.dram_stall_cycles += tail;
    last.memory.stall_cycles += tail;
    last.activity.cycles = last.cycles();
  }
  return result;
}

std::unique_ptr<Simulator> make_dpnn_simulator(const arch::DpnnConfig& cfg,
                                               const SimOptions& opts) {
  return std::make_unique<DpnnSimulator>(cfg, opts);
}

std::unique_ptr<Simulator> make_loom_simulator(const arch::LoomConfig& cfg,
                                               const SimOptions& opts) {
  return std::make_unique<LoomSimulator>(cfg, opts);
}

std::unique_ptr<Simulator> make_stripes_simulator(const arch::StripesConfig& cfg,
                                                  const SimOptions& opts) {
  return std::make_unique<StripesSimulator>(cfg, opts);
}

std::unique_ptr<Simulator> make_laconic_simulator(
    const arch::LaconicConfig& cfg, const SimOptions& opts) {
  return std::make_unique<LaconicSimulator>(cfg, opts);
}

}  // namespace loom::sim
