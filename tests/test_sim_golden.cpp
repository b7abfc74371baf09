// Whole-RunResult golden digests for every analytic simulator: DPNN,
// Stripes, DStripes, LM1b/2b/4b, term-serial Laconic and the three LM1b
// weight-precision modes (per-group, sparse skipping, honest group timing),
// each on NiN and AlexNet, unconstrained (§4.3) and with the off-chip
// memory model (§4.5). The digests cover every LayerResult field, every
// energy::Activity counter, the MemoryTrace, the area breakdown and the
// energy per layer-kind filter, so a change anywhere in a cycle model, the
// shared run loop or the energy inputs moves one. The roster also runs
// through ExperimentRunner at jobs 1 and 4 against the same digests.
// Values assume IEEE-754 doubles and glibc's correctly-rounded pow/exp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "core/runner.hpp"
#include "golden.hpp"
#include "quant/profiles.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

using golden::Fnv;

// The counters the Laconic goldens have hashed since that simulator landed.
// Kept as the prefix of the full digest so those values stay comparable.
void hash_counters(Fnv& f, const RunResult& r) {
  f.str(r.arch_name);
  f.str(r.network);
  f.u64(static_cast<std::uint64_t>(r.bits_per_cycle));
  for (const auto& l : r.layers) {
    f.str(l.name);
    f.u64(static_cast<std::uint64_t>(l.kind));
    f.u64(l.compute_cycles);
    f.u64(l.stall_cycles);
    f.i64(l.macs);
    f.f64(l.utilization);
    f.f64(l.mean_act_precision);
    f.f64(l.mean_weight_precision);
    const auto& a = l.activity;
    f.u64(a.laconic_lane_term_ops);
    f.u64(a.laconic_idle_lane_cycles);
    f.u64(a.wr_bits_loaded);
    f.u64(a.detector_values);
    f.u64(a.transposer_bits);
    f.u64(a.abin_read_bits);
    f.u64(a.abin_write_bits);
    f.u64(a.about_read_bits);
    f.u64(a.about_write_bits);
    f.u64(a.am_read_bits);
    f.u64(a.am_write_bits);
    f.u64(a.wm_read_bits);
    f.u64(a.wm_write_bits);
    f.u64(a.dram_read_bits);
    f.u64(a.dram_write_bits);
    f.u64(a.cycles);
  }
}

std::uint64_t laconic_digest(const RunResult& r) {
  Fnv f;
  hash_counters(f, r);
  return f.h;
}

/// Everything a RunResult carries: the counters above, the remaining
/// activity counters, the memory trace, the area and the energy per filter.
std::uint64_t digest(const RunResult& r) {
  Fnv f;
  hash_counters(f, r);
  for (const auto& l : r.layers) {
    const auto& a = l.activity;
    f.u64(a.mac_ops);
    f.u64(a.sip_lane_bit_ops);
    f.u64(a.stripes_lane_ops);
    f.u64(a.sip_idle_lane_cycles);
    f.u64(a.stripes_idle_lane_cycles);
    f.u64(a.mac_idle_cycles);
    f.u64(a.dram_stall_cycles);
    const mem::MemoryTrace& m = l.memory;
    f.u64(m.tiles);
    f.u64(m.act_fill_bits);
    f.u64(m.weight_fill_bits);
    f.u64(m.out_drain_bits);
    f.u64(m.fill_cycles);
    f.u64(m.stall_cycles);
    f.u64(m.max_tile_stall);
    f.u64(m.stalled_tiles);
    f.i64(m.compute_residual_cycles);
    f.u64(m.acts_resident ? 1 : 0);
    f.u64(m.weights_resident ? 1 : 0);
    f.u64(m.dataflow);
  }
  f.f64(r.area.compute_mm2);
  f.f64(r.area.support_mm2);
  f.f64(r.area.sram_mm2);
  f.f64(r.area.edram_mm2);
  for (const RunResult::Filter flt :
       {RunResult::Filter::kAll, RunResult::Filter::kConv,
        RunResult::Filter::kFc}) {
    f.f64(r.energy_pj(flt));
  }
  return f.h;
}

/// One simulator configuration and its digests per network and memory mode.
struct Golden {
  const char* key;
  std::uint64_t nin_free, nin_offchip, alexnet_free, alexnet_offchip;

  [[nodiscard]] std::uint64_t expected(const std::string& network,
                                       bool offchip) const {
    if (network == "nin") return offchip ? nin_offchip : nin_free;
    return offchip ? alexnet_offchip : alexnet_free;
  }
};

// The first seven keys are the runner roster in run order (baseline first).
constexpr Golden kGoldens[] = {
    {"dpnn",
     0x36898d467262fe54ull, 0x689319d43d8a758bull,
     0xd821db5e39f72c4eull, 0x34710a080f380943ull},
    {"stripes",
     0x4fb982809223f213ull, 0xc5f1b962db471307ull,
     0x2f85f80919c7e8ffull, 0x79751867d00a2896ull},
    {"dstripes",
     0xadf13ae9ae4d494full, 0x1129ac472c4ffc67ull,
     0xeb782285e6c75553ull, 0x4878a1b9d11d00eaull},
    {"lm1b",
     0x1c513770aafdd90bull, 0x989ba75868e3f015ull,
     0x32f35a66e48b445bull, 0xa69691a582609a11ull},
    {"lm2b",
     0x48d5073ccfa582d8ull, 0x1fba2d0ed7874915ull,
     0x8401893d8655289eull, 0x1b5ad6691026e2eaull},
    {"lm4b",
     0xc5b39c8562dd3839ull, 0xf1181c2673e5159cull,
     0xfa5680b36960c87dull, 0x9709ab2d46033e14ull},
    {"laconic",
     0xf6c7858be8690b31ull, 0xba0ec7bdd035091ull,
     0x437f355dbcc13d12ull, 0x137ce9fedfe063c8ull},
    {"lm1b-per-group",
     0x8cef54d995c0e3b0ull, 0xfff140d1df15a4e8ull,
     0xe17cf58657522full, 0x365e6ee79cc12628ull},
    {"lm1b-sparse",
     0xd4b904706e582151ull, 0x109ec90af40ce8c0ull,
     0x76e37b06afd53382ull, 0xea698c49889a1274ull},
    {"lm1b-honest",
     0x3cc504593ece838cull, 0x4b73e4d817cb9646ull,
     0x676e9994224fd03cull, 0x9e3a3f1b371823c2ull},
};
constexpr std::size_t kRosterKeys = 7;

std::unique_ptr<Simulator> make(const std::string& key, bool offchip) {
  SimOptions opts;
  opts.model_offchip = offchip;
  if (key == "dpnn") return make_dpnn_simulator(arch::DpnnConfig{}, opts);
  if (key == "stripes" || key == "dstripes") {
    arch::StripesConfig cfg;
    cfg.dynamic_act_precision = key == "dstripes";
    return make_stripes_simulator(cfg, opts);
  }
  if (key == "laconic") {
    return make_laconic_simulator(arch::LaconicConfig{}, opts);
  }
  arch::LoomConfig cfg;
  cfg.bits_per_cycle = key[2] - '0';
  cfg.per_group_weights =
      key == "lm1b-per-group" || key == "lm1b-honest";
  cfg.honest_group_weight_timing = key == "lm1b-honest";
  cfg.sparse_weight_skipping = key == "lm1b-sparse";
  return make_loom_simulator(cfg, opts);
}

class SimGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SimGolden, RunResultsMatchDigests) {
  const std::string& network = GetParam();
  auto wl = prepare_network(network, quant::AccuracyTarget::k100);
  for (const bool offchip : {false, true}) {
    for (const Golden& g : kGoldens) {
      const RunResult r = make(g.key, offchip)->run(*wl);
      EXPECT_EQ(digest(r), g.expected(network, offchip))
          << g.key << (offchip ? " offchip" : " free") << " 0x" << std::hex
          << digest(r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, SimGolden, ::testing::Values("nin", "alexnet"),
                         [](const auto& info) { return info.param; });

// GoogleTest prints the raw bytes of a parameter into each ctest name, so
// the padding after `offchip` is an explicit zeroed field: uninitialized
// padding would put stack residue into the names.
struct RunnerCase {
  int jobs;
  bool offchip;
  std::uint8_t unused[3]{};
};
static_assert(sizeof(RunnerCase) == sizeof(int) + sizeof(bool) + 3);

class RunnerGolden : public ::testing::TestWithParam<RunnerCase> {};

TEST_P(RunnerGolden, RosterMatchesDirectDigests) {
  const RunnerCase c = GetParam();
  core::RunnerOptions opts;
  opts.include_dstripes = true;
  opts.model_offchip = c.offchip;
  opts.jobs = c.jobs;
  core::ExperimentRunner runner(opts);
  const std::vector<std::string> networks = {"nin", "alexnet"};
  const Comparison cmp = runner.compare(networks);

  const auto& all = cmp.entries(RunResult::Filter::kAll);
  ASSERT_EQ(cmp.baseline_runs().size(), networks.size());
  ASSERT_EQ(all.size(), networks.size() * (kRosterKeys - 1));
  for (std::size_t n = 0; n < networks.size(); ++n) {
    EXPECT_EQ(digest(cmp.baseline_runs()[n]),
              kGoldens[0].expected(networks[n], c.offchip))
        << networks[n];
    for (std::size_t k = 1; k < kRosterKeys; ++k) {
      const RunResult& r = all[n * (kRosterKeys - 1) + k - 1].result;
      EXPECT_EQ(digest(r), kGoldens[k].expected(networks[n], c.offchip))
          << networks[n] << " " << kGoldens[k].key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Jobs, RunnerGolden,
    ::testing::Values(RunnerCase{1, false}, RunnerCase{1, true},
                      RunnerCase{4, false}, RunnerCase{4, true}),
    [](const auto& info) {
      return "jobs" + std::to_string(info.param.jobs) +
             (info.param.offchip ? "_offchip" : "_free");
    });

// FNV-1a digests of full term-serial RunResults captured when the simulator
// landed (same seeds, same profiles, default LaconicConfig, unconstrained
// §4.3 memory). Any digest change is a model change and must be explained.
TEST(LaconicSim, GoldenRunResultsOnZooNetworks) {
  auto sim = make_laconic_simulator(arch::LaconicConfig{}, {});
  {
    auto wl = prepare_network("alexnet", quant::AccuracyTarget::k100);
    EXPECT_EQ(laconic_digest(sim->run(*wl)), 0x10190b3f19115f6bull);
  }
  {
    auto wl = prepare_network("nin", quant::AccuracyTarget::k100);
    EXPECT_EQ(laconic_digest(sim->run(*wl)), 0xe20f6cce4847c40bull);
  }
}

}  // namespace
}  // namespace loom::sim
