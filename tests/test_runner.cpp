// End-to-end integration through the public API: the runner reproduces the
// paper's qualitative results on AlexNet within generous bands.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/loom.hpp"

namespace loom::core {
namespace {

/// The paper's §4.3 evaluation: activations on chip, weights
/// unconstrained. Roster sweeps default to the constrained §4.5 mode, so
/// the band-reproduction tests pin the mode explicitly.
RunnerOptions paper_opts() {
  RunnerOptions opts;
  opts.model_offchip = false;
  return opts;
}

TEST(Runner, RosterNamesFollowOptions) {
  RunnerOptions opts;
  opts.include_dstripes = true;
  ExperimentRunner runner(opts);
  const auto names = runner.roster_names();
  // Stripes, DStripes, LM1b, LM2b, LM4b, Laconic (term-serial rides last so
  // the historical indices stay put).
  ASSERT_EQ(names.size(), 6u);
  EXPECT_NE(names[0].find("Stripes"), std::string::npos);
  EXPECT_NE(names[1].find("DStripes"), std::string::npos);
  EXPECT_NE(names[2].find("LM1b"), std::string::npos);
  EXPECT_NE(names.back().find("Laconic"), std::string::npos);

  RunnerOptions no_laconic;
  no_laconic.include_laconic = false;
  EXPECT_EQ(ExperimentRunner(no_laconic).roster_names().size(), 4u);
}

TEST(Runner, AlexNetReproducesPaperBands) {
  ExperimentRunner runner(paper_opts());
  const sim::Comparison cmp = runner.compare({"alexnet"});
  const auto find = [&](const std::string& prefix, sim::RunResult::Filter f) {
    for (const auto& e : cmp.entries(f)) {
      if (e.arch.rfind(prefix, 0) == 0) return e;
    }
    ADD_FAILURE() << "missing " << prefix;
    return cmp.entries(f).front();
  };

  // Paper Table 2, AlexNet 100%: FCL LM1b 1.65, CVL LM1b 4.25,
  // CVL Stripes 2.34.
  const auto fc_lm1 = find("LM1b", sim::RunResult::Filter::kFc);
  EXPECT_NEAR(fc_lm1.perf, 1.65, 0.08);
  const auto cv_lm1 = find("LM1b", sim::RunResult::Filter::kConv);
  EXPECT_NEAR(cv_lm1.perf, 4.25, 0.35);
  const auto cv_st = find("Stripes", sim::RunResult::Filter::kConv);
  EXPECT_NEAR(cv_st.perf, 2.34, 0.15);

  // Orderings the paper reports: LM1b fastest on CVLs, the multi-bit
  // variants slower but (at 4b vs 1b) more energy-efficient; Stripes gains
  // nothing on FCLs.
  const auto cv_lm2 = find("LM2b", sim::RunResult::Filter::kConv);
  const auto cv_lm4 = find("LM4b", sim::RunResult::Filter::kConv);
  EXPECT_GT(cv_lm1.perf, cv_lm2.perf);
  EXPECT_GT(cv_lm2.perf, cv_lm4.perf);
  EXPECT_GT(cv_lm4.eff, cv_lm1.eff);
  const auto fc_st = find("Stripes", sim::RunResult::Filter::kFc);
  EXPECT_NEAR(fc_st.perf, 1.0, 0.02);
  EXPECT_LT(fc_st.eff, 1.0);
}

TEST(Runner, NinHasNoFcEntries) {
  ExperimentRunner runner;
  const sim::Comparison cmp = runner.compare({"nin"});
  EXPECT_TRUE(cmp.entries(sim::RunResult::Filter::kFc).empty());
  EXPECT_FALSE(cmp.entries(sim::RunResult::Filter::kConv).empty());
}

TEST(Runner, GeomeansAggregateAcrossNetworks) {
  ExperimentRunner runner;
  const sim::Comparison cmp = runner.compare({"alexnet", "nin"});
  const auto names = runner.roster_names();
  const auto g = cmp.geomeans(names.back(), sim::RunResult::Filter::kConv);
  EXPECT_GT(g.perf, 1.0);
  EXPECT_GT(g.eff, 1.0);
}

TEST(Runner, PerGroupModeBeatsProfileMode) {
  // §4.6 is a compute-time estimate: compare without memory stalls (a
  // bandwidth-bound layer hides compute gains under either mode).
  RunnerOptions base = paper_opts();
  base.loom_bits = {1};
  base.include_stripes = false;
  RunnerOptions grouped = base;
  grouped.per_group_weights = true;
  ExperimentRunner r_base(base);
  ExperimentRunner r_grouped(grouped);
  const auto cmp_base = r_base.compare({"alexnet"});
  const auto cmp_grouped = r_grouped.compare({"alexnet"});
  const auto all = sim::RunResult::Filter::kAll;
  EXPECT_GT(cmp_grouped.entries(all)[0].perf, cmp_base.entries(all)[0].perf);
}

TEST(Runner, RunSingleMatchesComparisonBaseline) {
  ExperimentRunner runner;
  const auto dpnn = runner.run_single("dpnn", "alexnet");
  const auto lm1 = runner.run_single("lm1b", "alexnet");
  EXPECT_GT(dpnn.cycles(sim::RunResult::Filter::kAll),
            lm1.cycles(sim::RunResult::Filter::kAll));
  EXPECT_THROW((void)runner.run_single("tpu", "alexnet"), ConfigError);
}

TEST(Runner, The99ProfileIsFasterThan100) {
  RunnerOptions o100 = paper_opts();
  o100.loom_bits = {1};
  o100.include_stripes = false;
  RunnerOptions o99 = o100;
  o99.target = quant::AccuracyTarget::k99;
  ExperimentRunner r100(o100);
  ExperimentRunner r99(o99);
  const auto all = sim::RunResult::Filter::kAll;
  const double p100 = r100.compare({"alexnet"}).entries(all)[0].perf;
  const double p99 = r99.compare({"alexnet"}).entries(all)[0].perf;
  EXPECT_GE(p99, p100);
}

TEST(Reports, FormattersProduceTables) {
  ExperimentRunner runner;
  const auto cmp = runner.compare({"alexnet"});
  const auto names = runner.roster_names();
  const std::string t2 = format_table2(cmp, names, "Test");
  EXPECT_NE(t2.find("FULLY-CONNECTED"), std::string::npos);
  EXPECT_NE(t2.find("CONVOLUTIONAL"), std::string::npos);
  EXPECT_NE(t2.find("alexnet"), std::string::npos);
  EXPECT_NE(t2.find("geomean"), std::string::npos);

  const std::string t1 = format_table1();
  EXPECT_NE(t1.find("9-8-5-5-7"), std::string::npos);  // AlexNet 100% acts

  const auto run = runner.run_single("lm1b", "alexnet");
  const std::string breakdown = format_layer_breakdown(run);
  EXPECT_NE(breakdown.find("conv1"), std::string::npos);
  EXPECT_NE(breakdown.find("fc8"), std::string::npos);
}

TEST(Runner, ConstrainedModeIsTheSweepDefault) {
  // Default roster sweeps model the §4.5 memory hierarchy: weights stream
  // from DRAM, so every run reports off-chip traffic; the unconstrained
  // mode reports none.
  RunnerOptions defaults;
  EXPECT_TRUE(defaults.model_offchip);

  ExperimentRunner constrained{RunnerOptions{}};
  const auto run = constrained.run_single("lm1b", "alexnet");
  EXPECT_GT(run.offchip_bits(), 0u);

  ExperimentRunner unconstrained(paper_opts());
  const auto free_run = unconstrained.run_single("lm1b", "alexnet");
  EXPECT_EQ(free_run.offchip_bits(), 0u);
  EXPECT_EQ(free_run.stall_cycles(), 0u);

  // Memory never changes compute: per-layer compute cycles agree exactly.
  ASSERT_EQ(run.layers.size(), free_run.layers.size());
  for (std::size_t i = 0; i < run.layers.size(); ++i) {
    EXPECT_EQ(run.layers[i].compute_cycles, free_run.layers[i].compute_cycles)
        << "layer " << i;
  }
}

TEST(Runner, CapacityOverridesReachTheSimulators) {
  // Starving the AM forces activation spills: traffic and stalls rise
  // versus the default sizing on the same network.
  RunnerOptions small;
  small.am_bytes = 64 << 10;
  small.wm_bytes = 128 << 10;
  ExperimentRunner starved(small);
  ExperimentRunner roomy{RunnerOptions{}};
  const auto starved_run = starved.run_single("lm1b", "alexnet");
  const auto roomy_run = roomy.run_single("lm1b", "alexnet");
  EXPECT_GT(starved_run.offchip_bits(), roomy_run.offchip_bits());
  EXPECT_GE(starved_run.stall_cycles(), roomy_run.stall_cycles());
}

TEST(Runner, CliFlagsMapToRunnerOptions) {
  const char* argv[] = {"prog",           "--equiv=256",
                        "--target=99",    "--model-offchip=false",
                        "--am-kb=512",    "--wm-kb=1024",
                        "--loom-bits=1,4", "--dstripes",
                        "--jobs=3",       "--seed=7"};
  const Options cli(10, argv);
  const RunnerOptions opts = runner_options_from_cli(cli);
  EXPECT_EQ(opts.equiv_macs, 256);
  EXPECT_EQ(opts.target, quant::AccuracyTarget::k99);
  EXPECT_FALSE(opts.model_offchip);
  EXPECT_EQ(opts.am_bytes, 512 * 1024);
  EXPECT_EQ(opts.wm_bytes, 1024 * 1024);
  ASSERT_EQ(opts.loom_bits.size(), 2u);
  EXPECT_EQ(opts.loom_bits[1], 4);
  EXPECT_TRUE(opts.include_dstripes);
  EXPECT_TRUE(opts.include_stripes);
  EXPECT_TRUE(opts.include_laconic);
  EXPECT_EQ(opts.jobs, 3);
  EXPECT_EQ(opts.seed, 7u);

  const char* trimmed[] = {"prog", "--no-laconic", "--no-stripes"};
  const RunnerOptions lean = runner_options_from_cli(Options(3, trimmed));
  EXPECT_FALSE(lean.include_laconic);
  EXPECT_FALSE(lean.include_stripes);

  // The historical --offchip spelling still works; defaults stay
  // constrained when neither flag is given.
  const char* legacy[] = {"prog", "--offchip=false"};
  EXPECT_FALSE(runner_options_from_cli(Options(2, legacy)).model_offchip);
  const char* none[] = {"prog"};
  EXPECT_TRUE(runner_options_from_cli(Options(1, none)).model_offchip);

  // Only the two accuracy targets exist; any other value is an error, not
  // a silent fall back to the 100% profile. Non-numeric bit widths too.
  const char* target98[] = {"prog", "--target=98"};
  EXPECT_THROW((void)runner_options_from_cli(Options(2, target98)),
               ConfigError);
  const char* target100[] = {"prog", "--target=100"};
  EXPECT_EQ(runner_options_from_cli(Options(2, target100)).target,
            quant::AccuracyTarget::k100);
  const char* bad_bits[] = {"prog", "--loom-bits=1,two"};
  EXPECT_THROW((void)runner_options_from_cli(Options(2, bad_bits)),
               ConfigError);
  const char* bare_bits[] = {"prog", "--loom-bits"};
  EXPECT_THROW((void)runner_options_from_cli(Options(2, bare_bits)),
               ConfigError);
}

TEST(Options, ParsesFlagsAndLists) {
  const char* argv[] = {"prog", "--equiv=256", "--offchip",
                        "--networks=alexnet,nin", "positional"};
  const Options opts(5, argv);
  EXPECT_EQ(opts.get_int("equiv", 128), 256);
  EXPECT_TRUE(opts.get_bool("offchip", false));
  EXPECT_EQ(opts.get_list("networks", {}).size(), 2u);
  EXPECT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(opts.get_double("missing", 1.5), 1.5);

  // A numeric getter rejects a value that is not wholly a number, naming
  // the flag: a bare --jobs must not read as 0 (all hardware threads).
  const char* junk[] = {"prog",        "--jobs",      "--equiv=12x",
                        "--rate=0.5s", "--rate2=2.5", "--neg=-3",
                        "--empty="};
  const Options bad(7, junk);
  EXPECT_THROW((void)bad.get_int("jobs", 1), ConfigError);
  EXPECT_THROW((void)bad.get_int("equiv", 128), ConfigError);
  EXPECT_THROW((void)bad.get_double("rate", 1.0), ConfigError);
  EXPECT_THROW((void)bad.get_int("empty", 1), ConfigError);
  EXPECT_THROW((void)bad.get_double("empty", 1.0), ConfigError);
  EXPECT_DOUBLE_EQ(bad.get_double("rate2", 1.0), 2.5);
  EXPECT_EQ(bad.get_int("neg", 0), -3);
  try {
    (void)bad.get_int("equiv", 128);
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--equiv"), std::string::npos);
  }
}

}  // namespace
}  // namespace loom::core
