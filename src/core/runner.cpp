#include "core/runner.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/zoo/zoo.hpp"

namespace loom::core {

ExperimentRunner::ExperimentRunner(RunnerOptions opts) : opts_(std::move(opts)) {}

std::vector<std::string> ExperimentRunner::roster_keys() const {
  std::vector<std::string> keys;
  if (opts_.include_stripes) keys.emplace_back("stripes");
  if (opts_.include_dstripes) keys.emplace_back("dstripes");
  for (const int bits : opts_.loom_bits) {
    keys.push_back("lm" + std::to_string(bits) + "b");
  }
  // Laconic rides last so the Stripes/Loom roster indices are unchanged.
  if (opts_.include_laconic) keys.emplace_back("laconic");
  return keys;
}

std::unique_ptr<sim::Simulator> ExperimentRunner::make_simulator(
    const std::string& key) const {
  sim::SimOptions sim_opts;
  sim_opts.model_offchip = opts_.model_offchip;
  sim_opts.am_bytes = opts_.am_bytes;
  sim_opts.wm_bytes = opts_.wm_bytes;
  sim_opts.dram = opts_.dram;

  if (key == "dpnn") {
    arch::DpnnConfig cfg;
    cfg.equiv_macs = opts_.equiv_macs;
    return sim::make_dpnn_simulator(cfg, sim_opts);
  }
  if (key == "stripes" || key == "dstripes") {
    arch::StripesConfig cfg;
    cfg.equiv_macs = opts_.equiv_macs;
    cfg.dynamic_act_precision = key == "dstripes";
    return sim::make_stripes_simulator(cfg, sim_opts);
  }
  // "lm<bits>b"; LoomConfig::validate rejects unsupported bit widths.
  if (key.size() == 4 && key.starts_with("lm") && key[3] == 'b' &&
      key[2] >= '0' && key[2] <= '9') {
    arch::LoomConfig cfg;
    cfg.equiv_macs = opts_.equiv_macs;
    cfg.bits_per_cycle = key[2] - '0';
    cfg.per_group_weights = opts_.per_group_weights;
    return sim::make_loom_simulator(cfg, sim_opts);
  }
  if (key == "laconic") {
    arch::LaconicConfig cfg;
    cfg.equiv_macs = opts_.equiv_macs;
    return sim::make_laconic_simulator(cfg, sim_opts);
  }
  throw ConfigError("unknown architecture key: " + key);
}

std::vector<std::string> ExperimentRunner::roster_names() const {
  std::vector<std::string> names;
  for (const std::string& key : roster_keys()) {
    names.push_back(make_simulator(key)->name());
  }
  return names;
}

sim::NetworkWorkload& ExperimentRunner::workload_for(const std::string& network) {
  const std::lock_guard<std::mutex> lock(workloads_mutex_);
  for (auto& [name, wl] : workloads_) {
    if (name == network) return *wl;
  }
  sim::WorkloadOptions wl_opts;
  wl_opts.seed = opts_.seed;
  workloads_.emplace_back(
      network, sim::prepare_network(network, opts_.target, wl_opts));
  return *workloads_.back().second;
}

sim::Comparison ExperimentRunner::compare(const std::vector<std::string>& networks) {
  const std::vector<std::string>& names =
      networks.empty() ? nn::zoo::paper_networks() : networks;

  // One cell per (network, architecture): the DPNN baseline first, then the
  // roster in run order. Every cell builds its own simulator, but cells of
  // the same network share one workload, whose memoized tables are
  // internally synchronized. Cells are deterministic and assembled in
  // order, so every `jobs` value yields the same table.
  std::vector<std::string> keys = roster_keys();
  keys.insert(keys.begin(), "dpnn");
  const std::size_t slots = keys.size();
  std::vector<sim::RunResult> cells(names.size() * slots);

  ThreadPool pool(std::min(resolve_jobs(opts_.jobs), cells.size()));
  pool.parallel_for(cells.size(), [&](std::size_t idx) {
    cells[idx] = run_single(keys[idx % slots], names[idx / slots]);
  });

  sim::Comparison cmp;
  for (std::size_t ni = 0; ni < names.size(); ++ni) {
    const auto first = cells.begin() + static_cast<std::ptrdiff_t>(ni * slots);
    std::vector<sim::RunResult> runs(
        std::make_move_iterator(first + 1),
        std::make_move_iterator(first + static_cast<std::ptrdiff_t>(slots)));
    cmp.add_network_results(names[ni], std::move(*first), std::move(runs));
  }
  return cmp;
}

sim::RunResult ExperimentRunner::run_single(const std::string& arch_key,
                                            const std::string& network) {
  return make_simulator(arch_key)->run(workload_for(network));
}

RunnerOptions runner_options_from_cli(const Options& cli) {
  RunnerOptions opts;
  opts.equiv_macs = static_cast<int>(cli.get_int("equiv", opts.equiv_macs));
  const std::int64_t target = cli.get_int("target", 100);
  if (target != 99 && target != 100) {
    throw ConfigError("--target must be 99 or 100, got " +
                      std::to_string(target));
  }
  opts.target = target == 99 ? quant::AccuracyTarget::k99
                             : quant::AccuracyTarget::k100;
  opts.per_group_weights =
      cli.get_bool("per-group-weights", opts.per_group_weights);
  // --offchip is the historical spelling; --model-offchip matches the
  // SimOptions knob. Constrained mode stays the sweep default.
  opts.model_offchip = cli.get_bool(
      "model-offchip", cli.get_bool("offchip", opts.model_offchip));
  opts.am_bytes = cli.get_int("am-kb", 0) * 1024;
  opts.wm_bytes = cli.get_int("wm-kb", 0) * 1024;
  opts.seed = static_cast<std::uint64_t>(cli.get_int(
      "seed", static_cast<std::int64_t>(opts.seed)));
  opts.jobs = static_cast<int>(cli.get_int("jobs", opts.jobs));
  opts.include_stripes = !cli.get_bool("no-stripes", false);
  opts.include_dstripes = cli.get_bool("dstripes", opts.include_dstripes);
  opts.include_laconic = !cli.get_bool("no-laconic", false);
  if (cli.has("loom-bits")) {
    opts.loom_bits.clear();
    for (const std::string& b : cli.get_list("loom-bits", {})) {
      // A non-numeric entry (a bare --loom-bits flag included) throws;
      // invalid widths fail in LoomConfig::validate.
      const std::int64_t bits = parse_int("loom-bits", b);
      if (bits > 0) opts.loom_bits.push_back(static_cast<int>(bits));
    }
  }
  return opts;
}

}  // namespace loom::core
