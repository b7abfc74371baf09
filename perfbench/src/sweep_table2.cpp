// sweep_table2: the 100% half of bench_table2_speedup — ExperimentRunner::
// compare over the six paper networks at E=128, unconstrained (§4.3),
// jobs=4. run.py starts every sample in a fresh process, because the
// process-wide calibration memo (quant::calibrated_spec_cached) has no reset
// and users pay it on every run.
//
// sweep-trace breaks the same work down by phase in another fresh process:
// per network, prepare_network plus the LayerWorkload queries the roster
// makes, cold and then again warm; then each architecture's simulator run
// on the warm workloads, serially.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>

#include "common/bitops.hpp"
#include "core/runner.hpp"
#include "nn/zoo/zoo.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace loom;

namespace {

constexpr int kEquiv = 128;
constexpr int kJobs = 4;

core::RunnerOptions runner_options(std::uint64_t seed) {
  core::RunnerOptions opts;
  opts.equiv_macs = kEquiv;
  opts.jobs = kJobs;
  opts.target = quant::AccuracyTarget::k100;
  opts.model_offchip = false;  // Table 2 is the §4.3 unconstrained setup
  opts.seed = seed;
  return opts;
}

/// Digest of everything a RunResult reports per layer: its fields' bytes,
/// hashed with fnv1a64.
std::string digest(const sim::RunResult& r) {
  std::vector<std::uint8_t> bytes;
  const auto put = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  const auto put_str = [&](const std::string& s) { put(s.data(), s.size()); };
  const auto put_num = [&](auto v) { put(&v, sizeof v); };
  put_str(r.arch_name);
  put_str(r.network);
  for (const sim::LayerResult& l : r.layers) {
    put_str(l.name);
    put_num(static_cast<std::uint64_t>(l.compute_cycles));
    put_num(static_cast<std::uint64_t>(l.stall_cycles));
    put_num(static_cast<std::uint64_t>(l.macs));
    put_num(static_cast<double>(l.utilization));
    put_num(static_cast<double>(l.mean_act_precision));
    put_num(static_cast<double>(l.mean_weight_precision));
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(loom::fnv1a64(bytes)));
  return hex;
}

/// Paper Table 2 geomeans, 100% profiles: {conv perf, conv eff, fc perf, fc eff}.
const std::map<std::string, std::array<double, 4>> kPaper = {
    {"Stripes", {1.84, 1.61, 1.00, 0.88}},
    {"LM1b", {3.25, 2.63, 1.74, 1.41}},
    {"LM2b", {3.10, 2.92, 1.75, 1.65}},
    {"LM4b", {2.78, 2.92, 1.75, 1.84}},
};

/// The LayerWorkload queries the Table-2 roster makes: precision and term
/// tables at 16 columns, the weight-precision measurement and NAF terms.
void roster_queries(sim::NetworkWorkload& wl) {
  for (std::size_t i = 0; i < wl.network().size(); ++i) {
    const nn::LayerKind kind = wl.network().layer(i).kind;
    if (kind == nn::LayerKind::kPool) continue;
    sim::LayerWorkload& lw = wl.layer(i);
    if (kind == nn::LayerKind::kConv) {
      (void)lw.act_group_precision_table(16);
      (void)lw.act_group_term_table(16);
    }
    (void)lw.effective_weight_precision();
    (void)lw.naf_weight_terms();
  }
}

}  // namespace

void run_sweep_setup(const Args& args, Report& report) {
  const core::ExperimentRunner runner(
      runner_options(static_cast<std::uint64_t>(args.integer("seed", 1))));
  // run.py subtracts its own clock reading taken just before the spawn (same
  // monotonic clock), so set-up covers process start plus construction.
  report.set("ready_ns",
             static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     Clock::now().time_since_epoch())
                                     .count()),
             "ns");
}

void run_sweep_sample(const Args& args, Report& report) {
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  const core::RunnerOptions opts = runner_options(seed);

  core::ExperimentRunner runner(opts);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  sim::Comparison cmp;
  {
    ScopedSpan span("core.compare");
    cmp = runner.compare(nn::zoo::paper_networks());
  }
  const double sweep_s = ms_since(t0) / 1e3;
  const double cpu_s = cpu_seconds() - cpu0;
  const std::vector<std::string> archs = runner.roster_names();
  report.set("sweep_s", sweep_s, "s");
  report.set("sweep.cpu_s", cpu_s, "s");
  report.set("sweep.parallel_eff", cpu_s / (sweep_s * kJobs), "ratio");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Digests of every simulated RunResult, and the structural gate.
  const auto& networks = nn::zoo::paper_networks();
  std::size_t results = 0;
  for (const sim::RunResult& base : cmp.baseline_runs()) {
    report.notes["digest." + base.network + "." + base.arch_name] = digest(base);
    ++results;
  }
  for (const sim::ComparisonEntry& e : cmp.entries(sim::RunResult::Filter::kAll)) {
    report.notes["digest." + e.network + "." + e.result.arch_name] = digest(e.result);
    ++results;
    if (e.result.cycles() == 0 || !(e.perf > 0.0) || !std::isfinite(e.perf)) {
      report.fail(e.network + "/" + e.arch + ": empty or non-finite result");
      ++report.failed;
    }
  }
  report.attempted = static_cast<std::int64_t>(networks.size() * (archs.size() + 1));
  if (static_cast<std::int64_t>(results) != report.attempted) {
    report.fail("expected " + std::to_string(report.attempted) + " results, got " +
                std::to_string(results));
    report.failed += report.attempted - static_cast<std::int64_t>(results);
  }

  // Accuracy against the paper (reported, not gated).
  std::string accuracy;
  for (const auto& [arch, paper] : kPaper) {
    // Roster entries are keyed by the full configuration string, "LM1b(E=...".
    const auto it = std::find_if(archs.begin(), archs.end(), [&](const std::string& a) {
      return a.rfind(arch + "(", 0) == 0;
    });
    if (it == archs.end()) {
      report.fail("no " + arch + " in the roster");
      continue;
    }
    const auto conv = cmp.geomeans(*it, sim::RunResult::Filter::kConv);
    const auto fc = cmp.geomeans(*it, sim::RunResult::Filter::kFc);
    const double sim_vals[4] = {conv.perf, conv.eff, fc.perf, fc.eff};
    const char* what[4] = {"conv_perf", "conv_eff", "fc_perf", "fc_eff"};
    for (int i = 0; i < 4; ++i) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s %s sim %.2f paper %.2f err %+.1f%%; ",
                    arch.c_str(), what[i], sim_vals[i], paper[static_cast<std::size_t>(i)],
                    100.0 * (sim_vals[i] / paper[static_cast<std::size_t>(i)] - 1.0));
      accuracy += buf;
    }
  }
  report.notes["table2_accuracy"] = accuracy;
}

void run_sweep_trace(const Args& args, Report& report) {
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  sim::WorkloadOptions wopts;
  wopts.seed = seed;
  const auto& networks = nn::zoo::paper_networks();
  std::vector<std::unique_ptr<sim::NetworkWorkload>> warm;
  for (const bool cold : {true, false}) {
    for (const std::string& net : networks) {
      const std::string phase = cold ? "sweep.prep_cold_ms." : "sweep.prep_warm_ms.";
      ScopedSpan span(phase + net);
      const auto t0 = Clock::now();
      auto wl = sim::prepare_network(net, quant::AccuracyTarget::k100, wopts);
      roster_queries(*wl);
      report.set(phase + net, ms_since(t0), "ms");
      if (!cold) warm.push_back(std::move(wl));
    }
  }

  sim::SimOptions sopts;
  sopts.model_offchip = false;
  const auto loom_sim = [&](int bits) {
    arch::LoomConfig c;
    c.equiv_macs = kEquiv;
    c.bits_per_cycle = bits;
    return sim::make_loom_simulator(c, sopts);
  };
  using Factory = std::function<std::unique_ptr<sim::Simulator>()>;
  const std::vector<std::pair<std::string, Factory>> archs = {
      {"dpnn",
       [&] {
         arch::DpnnConfig c;
         c.equiv_macs = kEquiv;
         return sim::make_dpnn_simulator(c, sopts);
       }},
      {"stripes",
       [&] {
         arch::StripesConfig c;
         c.equiv_macs = kEquiv;
         c.dynamic_act_precision = false;
         return sim::make_stripes_simulator(c, sopts);
       }},
      {"lm1b", [&] { return loom_sim(1); }},
      {"lm2b", [&] { return loom_sim(2); }},
      {"lm4b", [&] { return loom_sim(4); }},
      {"laconic",
       [&] {
         arch::LaconicConfig c;
         c.equiv_macs = kEquiv;
         return sim::make_laconic_simulator(c, sopts);
       }},
  };
  for (const auto& [key, make] : archs) {
    double total_ms = 0.0;
    for (std::size_t n = 0; n < networks.size(); ++n) {
      ScopedSpan span("sweep.simulate." + key + "." + networks[n]);
      auto simulator = make();
      const auto t0 = Clock::now();
      const sim::RunResult r = simulator->run(*warm[n]);
      total_ms += ms_since(t0);
      report.notes["digest." + r.network + "." + r.arch_name] = digest(r);
      ++report.attempted;
    }
    report.set("sweep.simulate_ms." + key, total_ms, "ms",
               static_cast<std::int64_t>(networks.size()));
  }
}

}  // namespace perfbench
