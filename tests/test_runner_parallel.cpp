// Cross-check for the runner's `jobs` fan-out: a comparison on several
// workers must be bit-identical to one on a single worker — same entry
// ordering, same speedups/efficiencies (exact double equality), same
// per-layer cycles. test_sim_golden pins both against fixed digests.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/runner.hpp"

namespace loom::core {
namespace {

RunnerOptions small_opts(int jobs) {
  RunnerOptions opts;
  opts.equiv_macs = 32;  // small scale keeps the two-network sweep fast
  opts.jobs = jobs;
  return opts;
}

void expect_identical(const sim::Comparison& a, const sim::Comparison& b) {
  for (const sim::RunResult::Filter f :
       {sim::RunResult::Filter::kAll, sim::RunResult::Filter::kConv,
        sim::RunResult::Filter::kFc}) {
    const auto& ea = a.entries(f);
    const auto& eb = b.entries(f);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].network, eb[i].network) << "entry " << i;
      EXPECT_EQ(ea[i].arch, eb[i].arch) << "entry " << i;
      EXPECT_EQ(ea[i].perf, eb[i].perf) << "entry " << i;  // exact, not NEAR
      EXPECT_EQ(ea[i].eff, eb[i].eff) << "entry " << i;
      EXPECT_EQ(ea[i].result.cycles(f), eb[i].result.cycles(f)) << "entry " << i;
      EXPECT_EQ(ea[i].result.energy_pj(f), eb[i].result.energy_pj(f))
          << "entry " << i;
      ASSERT_EQ(ea[i].result.layers.size(), eb[i].result.layers.size());
      for (std::size_t l = 0; l < ea[i].result.layers.size(); ++l) {
        EXPECT_EQ(ea[i].result.layers[l].compute_cycles,
                  eb[i].result.layers[l].compute_cycles)
            << "entry " << i << " layer " << l;
      }
    }
  }

  const auto& ba = a.baseline_runs();
  const auto& bb = b.baseline_runs();
  ASSERT_EQ(ba.size(), bb.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].arch_name, bb[i].arch_name);
    EXPECT_EQ(ba[i].cycles(), bb[i].cycles());
    EXPECT_EQ(ba[i].energy_pj(), bb[i].energy_pj());
  }
}

TEST(RunnerParallel, MatchesSerialOnTwoNetworks) {
  const std::vector<std::string> nets = {"alexnet", "nin"};

  ExperimentRunner serial(small_opts(1));
  const sim::Comparison golden = serial.compare(nets);

  ExperimentRunner parallel(small_opts(4));
  const sim::Comparison fanned = parallel.compare(nets);

  expect_identical(golden, fanned);
}

TEST(RunnerParallel, HardwareConcurrencyMatchesSerial) {
  const std::vector<std::string> nets = {"alexnet", "nin"};

  ExperimentRunner serial(small_opts(1));
  const sim::Comparison golden = serial.compare(nets);

  // jobs <= 0 resolves to one worker per hardware thread.
  ExperimentRunner parallel(small_opts(0));
  const sim::Comparison fanned = parallel.compare(nets);

  expect_identical(golden, fanned);
}

TEST(RunnerParallel, RepeatedParallelRunsAreStable) {
  // Two parallel comparisons from *the same runner* reuse the cached
  // workloads; results must not drift between the cold and warm pass.
  ExperimentRunner runner(small_opts(4));
  const sim::Comparison first = runner.compare({"nin"});
  const sim::Comparison second = runner.compare({"nin"});
  expect_identical(first, second);
}

TEST(RunnerParallel, DstripesRosterRoundTrips) {
  // The wider roster (DStripes included) also survives the fan-out.
  RunnerOptions serial_opts = small_opts(1);
  serial_opts.include_dstripes = true;
  RunnerOptions parallel_opts = small_opts(3);
  parallel_opts.include_dstripes = true;

  ExperimentRunner serial(serial_opts);
  ExperimentRunner parallel(parallel_opts);
  expect_identical(serial.compare({"nin"}), parallel.compare({"nin"}));
}

}  // namespace
}  // namespace loom::core
