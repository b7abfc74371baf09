// Simulator interface and factories. Each simulator turns a NetworkWorkload
// into a RunResult using its architecture's cycle model. One shared run
// loop (Simulator::run / simulate_layer) walks the layers for all of them,
// and all share the off-chip modeling options.
#pragma once

#include <memory>
#include <string>

#include "arch/config.hpp"
#include "energy/area_model.hpp"
#include "mem/hierarchy.hpp"
#include "sim/engine.hpp"
#include "sim/result.hpp"
#include "sim/workload.hpp"

namespace loom::sim {

/// Adder tree (4 levels) + AC1/AC2 stages, charged once per layer by the
/// bit-serial analytic models (Loom, Stripes and Laconic). The functional
/// engines report raw grid cycles without it (tests compare
/// `functional + kPipelineFill == analytic`).
inline constexpr std::uint64_t kPipelineFill = 8;
/// DPNN's shallower multiplier + adder-tree pipeline fill, charged once per
/// layer in place of kPipelineFill.
inline constexpr std::uint64_t kDpnnPipelineFill = 6;

struct SimOptions {
  /// false reproduces §4.3's setup (activations on chip, weights
  /// unconstrained); true adds the single-channel LPDDR4-4267 and AM/WM
  /// capacity effects of §4.5 / Figure 5, modeled by the shared tile
  /// scheduler + memory timeline (sim/engine).
  bool model_offchip = false;
  /// Capacity overrides for sizing sweeps; 0 keeps the §4.5 default the
  /// architecture implies (mem::default_memory_config).
  std::int64_t am_bytes = 0;
  std::int64_t wm_bytes = 0;
  mem::DramConfig dram;
};

/// One weighted layer under an architecture's cycle model: its compute
/// cycles and activity, plus the storage layout and per-block compute the
/// shared timing core prices when off-chip memory is modeled.
struct LayerModel {
  explicit LayerModel(const nn::Layer& layer) {
    result.name = layer.name;
    result.kind = layer.kind;
    result.macs = layer.macs();
  }

  LayerResult result;
  engine::LayerStorage storage;
  engine::BlockCompute block_compute;
};

class Simulator {
 public:
  virtual ~Simulator() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Simulate one inference pass of the workload's network.
  [[nodiscard]] RunResult run(NetworkWorkload& workload) const;

 protected:
  /// `bits_per_cycle` feeds the energy model's SIP lane energy;
  /// `bit_packed` picks the packed §4.5 AM/WM sizing.
  Simulator(const SimOptions& opts, int equiv_macs, int bits_per_cycle,
            bool bit_packed)
      : opts_(opts),
        equiv_macs_(equiv_macs),
        bits_per_cycle_(bits_per_cycle),
        bit_packed_(bit_packed) {}

 private:
  /// Simulate one layer against the run-wide timing core (the shared tile
  /// scheduler + memory timeline; see sim/engine.hpp).
  [[nodiscard]] LayerResult simulate_layer(LayerWorkload& lw,
                                           engine::TimingCore& core) const;
  /// The architecture's cycle model of one weighted layer.
  [[nodiscard]] virtual LayerModel model_layer(LayerWorkload& lw) const = 0;
  [[nodiscard]] virtual energy::AreaBreakdown area(
      const mem::MemorySystemConfig& mem) const = 0;

  SimOptions opts_;
  int equiv_macs_;
  int bits_per_cycle_;
  bool bit_packed_;
};

[[nodiscard]] std::unique_ptr<Simulator> make_dpnn_simulator(
    const arch::DpnnConfig& cfg, const SimOptions& opts = {});
[[nodiscard]] std::unique_ptr<Simulator> make_loom_simulator(
    const arch::LoomConfig& cfg, const SimOptions& opts = {});
[[nodiscard]] std::unique_ptr<Simulator> make_stripes_simulator(
    const arch::StripesConfig& cfg, const SimOptions& opts = {});
[[nodiscard]] std::unique_ptr<Simulator> make_laconic_simulator(
    const arch::LaconicConfig& cfg, const SimOptions& opts = {});

}  // namespace loom::sim
