// Comparison harness: run a set of architectures over a set of networks and
// tabulate speedup / relative energy efficiency vs the DPNN baseline —
// the quantities every table and figure of the paper reports.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/result.hpp"

namespace loom::sim {

struct ComparisonEntry {
  std::string network;
  std::string arch;
  double perf = 0.0;  ///< speedup vs baseline (same filter)
  double eff = 0.0;   ///< relative energy efficiency vs baseline
  RunResult result;   ///< the full run, for drill-down
};

class Comparison {
 public:
  /// Record the runs of one network (baseline first, then the roster in
  /// run order) as metrics relative to the baseline, per filter. Callers
  /// may simulate cells out of order (e.g. on a thread pool) and still
  /// assemble a deterministically ordered table.
  void add_network_results(const std::string& network, RunResult base,
                           std::vector<RunResult> runs);

  [[nodiscard]] const std::vector<ComparisonEntry>& entries(
      RunResult::Filter f) const;

  /// Geometric means over networks for one architecture name.
  struct Geomeans {
    double perf = 0.0;
    double eff = 0.0;
  };
  [[nodiscard]] Geomeans geomeans(const std::string& arch,
                                  RunResult::Filter f) const;

  [[nodiscard]] const std::vector<RunResult>& baseline_runs() const noexcept {
    return baseline_runs_;
  }

 private:
  std::map<RunResult::Filter, std::vector<ComparisonEntry>> entries_;
  std::vector<RunResult> baseline_runs_;
};

}  // namespace loom::sim
