#include "sim/comparison.hpp"

#include "common/stats.hpp"

namespace loom::sim {

void Comparison::add_network_results(const std::string& network, RunResult base,
                                     std::vector<RunResult> runs) {
  baseline_runs_.push_back(std::move(base));
  const RunResult& base_ref = baseline_runs_.back();

  for (RunResult& run : runs) {
    for (const RunResult::Filter f :
         {RunResult::Filter::kAll, RunResult::Filter::kConv,
          RunResult::Filter::kFc}) {
      if (run.cycles(f) == 0) continue;  // e.g. NiN has no FC layers
      ComparisonEntry e;
      e.network = network;
      e.arch = run.arch_name;
      e.perf = speedup_vs(run, base_ref, f);
      e.eff = efficiency_vs(run, base_ref, f);
      e.result = run;
      entries_[f].push_back(std::move(e));
    }
  }
}

const std::vector<ComparisonEntry>& Comparison::entries(
    RunResult::Filter f) const {
  static const std::vector<ComparisonEntry> empty;
  const auto it = entries_.find(f);
  return it == entries_.end() ? empty : it->second;
}

Comparison::Geomeans Comparison::geomeans(const std::string& arch,
                                          RunResult::Filter f) const {
  std::vector<double> perfs;
  std::vector<double> effs;
  for (const ComparisonEntry& e : entries(f)) {
    if (e.arch != arch) continue;
    perfs.push_back(e.perf);
    effs.push_back(e.eff);
  }
  Geomeans g;
  g.perf = geomean(perfs);
  g.eff = geomean(effs);
  return g;
}

}  // namespace loom::sim
