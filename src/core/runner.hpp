// ExperimentRunner: builds the paper's standard architecture roster at a
// given equivalent compute scale and runs the comparison over zoo networks,
// sharing one workload per network across all architectures (the group-
// precision caches make this a large win).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "quant/profiles.hpp"
#include "sim/comparison.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace loom::core {

struct RunnerOptions {
  int equiv_macs = 128;
  quant::AccuracyTarget target = quant::AccuracyTarget::k100;
  bool per_group_weights = false;  ///< §4.6 / Table 4 mode for the Loom variants
  /// Constrained §4.5 mode (tile-scheduled AM/WM + LPDDR4 timing from
  /// sim/engine) — the default for roster sweeps. Disable to reproduce the
  /// §4.3 unconstrained tables.
  bool model_offchip = true;
  /// AM/WM capacity overrides in bytes; 0 keeps each architecture's §4.5
  /// default sizing (Loom 1 MB packed AM, DPNN 2 MB, WM scaling with E).
  std::int64_t am_bytes = 0;
  std::int64_t wm_bytes = 0;
  mem::DramConfig dram;
  std::uint64_t seed = 1;

  bool include_stripes = true;
  bool include_dstripes = false;
  std::vector<int> loom_bits = {1, 2, 4};  ///< which LMxb variants to run
  /// Term-serial (Laconic-style) simulator as the roster's last entry — the
  /// §6 weight-sparsity extension measured instead of estimated.
  bool include_laconic = true;

  /// Worker threads used by compare() to simulate (arch × network) cells
  /// concurrently. 1 runs them one at a time, in order; values <= 0 use
  /// one worker per hardware thread. The comparison table is bit-identical
  /// for every value — cells are deterministic and results are assembled in
  /// roster order.
  int jobs = 1;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions opts = {});

  /// Run the baseline + roster over the named zoo networks, producing the
  /// relative comparison. Networks default to the paper's six.
  [[nodiscard]] sim::Comparison compare(
      const std::vector<std::string>& networks = {});

  /// Run one architecture by key ("dpnn", "stripes", "dstripes", "lm1b",
  /// "lm2b", "lm4b", "laconic") over one network; used by examples/benches
  /// needing raw RunResults. Any other key throws ConfigError.
  [[nodiscard]] sim::RunResult run_single(const std::string& arch_key,
                                          const std::string& network);

  /// Display names of the roster architectures, in run order.
  [[nodiscard]] std::vector<std::string> roster_names() const;

  [[nodiscard]] const RunnerOptions& options() const noexcept { return opts_; }

 private:
  /// Keys of the roster architectures, in run order.
  [[nodiscard]] std::vector<std::string> roster_keys() const;
  /// The simulator an architecture key names, at this runner's scale and
  /// memory options.
  [[nodiscard]] std::unique_ptr<sim::Simulator> make_simulator(
      const std::string& key) const;
  /// Lazily builds (and caches) the workload for `network`. Thread-safe:
  /// the cache lookup/insert is mutex-guarded so concurrent cells of the
  /// same network share one workload (and its group-precision tables).
  [[nodiscard]] sim::NetworkWorkload& workload_for(const std::string& network);

  RunnerOptions opts_;
  std::mutex workloads_mutex_;
  std::vector<std::pair<std::string, std::unique_ptr<sim::NetworkWorkload>>>
      workloads_;
};

/// Parse the standard sweep flags into RunnerOptions, shared by the CLI
/// binaries: --equiv, --target(100|99), --per-group-weights,
/// --model-offchip / --offchip, --am-kb, --wm-kb, --jobs, --seed,
/// --loom-bits, --dstripes, --no-stripes, --no-laconic.
[[nodiscard]] RunnerOptions runner_options_from_cli(const Options& cli);

}  // namespace loom::core
