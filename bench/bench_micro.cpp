// Microbenchmarks (google-benchmark): throughput of the hot components —
// the functional SIP, the grid tile, precision detection, serialization,
// the OR-plane precision engine and the cycle-accurate layer models
// themselves. The `bench-json` CMake target runs this binary and writes
// BENCH_micro.json for the perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cpuid.hpp"
#include "common/error.hpp"
#include "core/loom.hpp"
#include "nn/im2col.hpp"
#include "sim/autotune_cache.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/server.hpp"
#include "serve/shard_router.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"
#include "sim/loom_sim.hpp"
#include "sim/or_planes.hpp"

using namespace loom;

namespace {

std::vector<Value> values(int n, int bits, bool is_signed, std::uint64_t seed) {
  nn::SyntheticSpec spec{.precision = bits, .alpha = 1.5, .is_signed = is_signed};
  const nn::SyntheticSource src(seed, 0, spec);
  std::vector<Value> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = src.at(static_cast<std::uint64_t>(i));
  return out;
}

void BM_SipInnerProduct(benchmark::State& state) {
  const int pa = static_cast<int>(state.range(0));
  const int pw = static_cast<int>(state.range(1));
  arch::Sip sip(arch::SipConfig{});
  const auto a = values(16, pa, false, 1);
  const auto w = values(16, pw, true, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arch::sip_inner_product(sip, a, w, pa, pw));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SipInnerProduct)->Args({8, 11})->Args({16, 16})->Args({4, 4});

void BM_TileConvBlock(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  arch::SipTile tile(arch::TileConfig{.rows = rows, .cols = 16, .lanes = 16});
  std::vector<std::vector<Value>> acts(16), weights(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < acts.size(); ++i) acts[i] = values(64, 8, false, i);
  for (std::size_t i = 0; i < weights.size(); ++i) weights[i] = values(64, 8, true, 100 + i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tile.conv_block(acts, weights, 8, 8));
  }
  state.SetItemsProcessed(state.iterations() * rows * 16 * 64);
}
BENCHMARK(BM_TileConvBlock)->Arg(4)->Arg(16);

void BM_PrecisionDetect(benchmark::State& state) {
  arch::DynamicPrecisionUnit unit;
  const auto group = values(256, 9, false, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.detect(group));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PrecisionDetect);

void BM_SerializeRoundTrip(benchmark::State& state) {
  const auto vals = values(2048, 11, true, 9);
  for (auto _ : state) {
    const auto planes = arch::serialize(vals, 11);
    benchmark::DoNotOptimize(arch::deserialize(planes, true));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_SerializeRoundTrip);

void BM_LoomLayerSimulation(benchmark::State& state) {
  // One mid-size conv layer through the full cycle model (static mode so
  // the measurement excludes one-time calibration).
  nn::Network net("bench", nn::Shape3{64, 28, 28});
  net.add_conv("c", 128, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "bench";
  p.conv_act = {9};
  p.conv_weight = 11;
  quant::apply_profile(net, p);
  sim::NetworkWorkload wl(std::move(net), p);
  arch::LoomConfig cfg;
  cfg.dynamic_act_precision = false;
  auto sim = sim::make_loom_simulator(cfg, sim::SimOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim->run(wl));
  }
}
BENCHMARK(BM_LoomLayerSimulation);

void BM_LaconicConvLayer(benchmark::State& state) {
  // The same mid-size conv layer through the term-serial cycle model.
  // Laconic is always dynamic (the config rejects anything else), so one
  // warm-up run pays the calibration + term-table fill and the loop times
  // the steady-state table sweep.
  nn::Network net("bench", nn::Shape3{64, 28, 28});
  net.add_conv("c", 128, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "bench";
  p.conv_act = {9};
  p.conv_weight = 11;
  p.dynamic_act_trim = 1.5;
  quant::apply_profile(net, p);
  sim::NetworkWorkload wl(std::move(net), p);
  auto sim = sim::make_laconic_simulator(arch::LaconicConfig{}, sim::SimOptions{});
  benchmark::DoNotOptimize(sim->run(wl));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim->run(wl));
  }
}
BENCHMARK(BM_LaconicConvLayer);

void BM_WorkloadGroupPrecision(benchmark::State& state) {
  nn::Network net("bench", nn::Shape3{64, 28, 28});
  net.add_conv("c", 128, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "bench";
  p.conv_act = {9};
  p.conv_weight = 11;
  p.dynamic_act_trim = 1.5;
  quant::apply_profile(net, p);
  const std::int64_t wb_count = ceil_div(net.layer(0).windows(), 16);
  sim::NetworkWorkload wl(std::move(net), p);
  sim::LayerWorkload& lw = wl.layer(0);
  (void)lw.act_group_precision_table(16);  // pay calibration and fill once
  std::int64_t wb = 0;
  for (auto _ : state) {
    // The memoized table lookup plus one chunk read.
    benchmark::DoNotOptimize(lw.act_group_precision_table(16).at(0, wb, 0));
    wb = (wb + 1) % wb_count;
  }
}
BENCHMARK(BM_WorkloadGroupPrecision);

// ---- OR-plane precision engine --------------------------------------------

/// The mid-size conv layer used by the plane benches (same geometry as
/// BM_WorkloadGroupPrecision / BM_LoomLayerSimulation).
nn::Layer plane_layer() {
  nn::Layer layer =
      nn::make_conv("c", nn::Shape3{64, 28, 28}, 128, 3, 1, 1);
  layer.act_precision = 9;
  return layer;
}

nn::Tensor plane_input(const nn::Layer& layer) {
  nn::SyntheticSpec spec;
  spec.precision = 9;
  spec.alpha = 3.0;
  spec.zero_fraction = 0.45;
  return nn::make_activation_tensor(layer.in, spec, 1, 0);
}

void BM_OrPlaneBuild(benchmark::State& state) {
  const nn::Layer layer = plane_layer();
  const nn::Tensor input = plane_input(layer);
  sim::ActOrPlanes planes(layer, 16);
  for (auto _ : state) {
    planes.build(input);
    benchmark::DoNotOptimize(planes.group_or(0, 0, 0, 16));
  }
  // One im2col touch per (window, inner) pair and per cycle model query.
  state.SetItemsProcessed(state.iterations() * layer.windows() *
                          layer.inner_length());
}
BENCHMARK(BM_OrPlaneBuild);

void BM_GroupPrecisionColdQuery(benchmark::State& state) {
  // What the table fill pays per chunk: OR `cols` contiguous plane entries
  // + leading-one detection. Cycles over blocks so every query is "cold".
  const nn::Layer layer = plane_layer();
  const nn::Tensor input = plane_input(layer);
  sim::ActOrPlanes planes(layer, 16);
  planes.build(input);
  const std::int64_t wb_count = ceil_div(planes.windows(), 16);
  std::int64_t k = 0;
  for (auto _ : state) {
    const std::int64_t wb = k % wb_count;
    const std::int64_t ic = (k / wb_count) % planes.ic_count();
    ++k;
    benchmark::DoNotOptimize(
        needed_bits_unsigned(planes.group_or(0, ic, wb, 16)));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_GroupPrecisionColdQuery);

void BM_GroupPrecisionBruteScan(benchmark::State& state) {
  // Pre-OR-plane reference for the same query: the scattered 256-value
  // im2col scan with per-value div/mod and padding checks. The ratio to
  // BM_GroupPrecisionColdQuery is the steady-state cold-cache speedup.
  const nn::Layer layer = plane_layer();
  const nn::Tensor input = plane_input(layer);
  const std::int64_t windows = layer.windows();
  const std::int64_t inner = layer.inner_length();
  const std::int64_t wb_count = ceil_div(windows, 16);
  const std::int64_t ic_count = ceil_div(inner, 16);
  std::int64_t k = 0;
  for (auto _ : state) {
    const std::int64_t wb = k % wb_count;
    const std::int64_t ic = (k / wb_count) % ic_count;
    ++k;
    std::uint32_t ored = 0;
    const std::int64_t w_end = std::min<std::int64_t>((wb + 1) * 16, windows);
    const std::int64_t f_end = std::min<std::int64_t>((ic + 1) * 16, inner);
    for (std::int64_t w = wb * 16; w < w_end; ++w) {
      for (std::int64_t f = ic * 16; f < f_end; ++f) {
        const std::int64_t idx = nn::im2col_input_index(layer, 0, w, f);
        if (idx >= 0) ored |= static_cast<std::uint16_t>(input.flat(idx));
      }
    }
    benchmark::DoNotOptimize(needed_bits_unsigned(ored));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_GroupPrecisionBruteScan);

void BM_TermCountQuery(benchmark::State& state) {
  // The term-serial analog of BM_GroupPrecisionColdQuery: OR `cols`
  // contiguous plane entries + popcount (essential planes) instead of
  // leading-one detection (positional precision). Same plane data, so the
  // delta to the precision query is the popcount itself.
  const nn::Layer layer = plane_layer();
  const nn::Tensor input = plane_input(layer);
  sim::ActOrPlanes planes(layer, 16);
  planes.build(input);
  const std::uint32_t mask = (std::uint32_t{1} << layer.act_precision) - 1u;
  const std::int64_t wb_count = ceil_div(planes.windows(), 16);
  std::int64_t k = 0;
  for (auto _ : state) {
    const std::int64_t wb = k % wb_count;
    const std::int64_t ic = (k / wb_count) % planes.ic_count();
    ++k;
    benchmark::DoNotOptimize(std::popcount(
        static_cast<std::uint32_t>(planes.group_or(0, ic, wb, 16)) & mask));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TermCountQuery);

void BM_PrecisionTableSweep(benchmark::State& state) {
  // Steady state of the analytic conv cycle models: fetch the bulk table
  // and read every chunk precision.
  nn::Network net("bench", nn::Shape3{64, 28, 28});
  net.add_conv("c", 128, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "bench";
  p.conv_act = {9};
  p.conv_weight = 11;
  p.dynamic_act_trim = 1.5;
  quant::apply_profile(net, p);
  const std::int64_t wb_count = ceil_div(net.layer(0).windows(), 16);
  const std::int64_t ic_count = ceil_div(net.layer(0).inner_length(), 16);
  sim::NetworkWorkload wl(std::move(net), p);
  sim::LayerWorkload& lw = wl.layer(0);
  for (auto _ : state) {
    const sim::ActPrecisionTable table = lw.act_group_precision_table(16);
    std::int64_t sum = 0;
    for (std::int64_t wb = 0; wb < wb_count; ++wb) {
      for (std::int64_t ic = 0; ic < ic_count; ++ic) {
        sum += table.at(0, wb, ic);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * wb_count * ic_count);
}
BENCHMARK(BM_PrecisionTableSweep);

void BM_WorkloadCalibration(benchmark::State& state) {
  // prepare_network's per-layer cost: the group-calibration bisection on
  // the layer's real detection groups (one max-draw pass, then one pow per
  // sampled group per step) plus tensor materialization and the plane
  // build. No spec calibration runs here: the layer sets its activation
  // spec fields directly.
  quant::PrecisionProfile p;
  p.network = "bench";
  p.conv_act = {9};
  p.conv_weight = 11;
  p.dynamic_act_trim = 1.5;
  for (auto _ : state) {
    nn::Network net("bench", nn::Shape3{64, 28, 28});
    net.add_conv("c", 128, 3, 1, 1).precision_group = 0;
    quant::apply_profile(net, p);
    sim::NetworkWorkload wl(std::move(net), p);
    benchmark::DoNotOptimize(wl.layer(0).act_group_precision_table(16));
  }
}
BENCHMARK(BM_WorkloadCalibration);

void BM_CalibrateToGroupPrecision(benchmark::State& state) {
  // One uncached spec calibration, as calibrated_spec_cached runs it on a
  // miss. Arg 0: a Table-3 weight key (signed 11 bits, group 16, target
  // 8.36). Arg 1: a group-256 activation key (unsigned 9 bits, zero
  // fraction 0.45, target 7.0), the model-registration input calibration.
  const bool weights = state.range(0) == 0;
  const nn::SyntheticSpec spec{.precision = weights ? 11 : 9,
                               .is_signed = weights,
                               .zero_fraction = weights ? 0.0 : 0.45};
  quant::CalibrationOptions opts;
  opts.group_size = weights ? 16 : 256;
  const double target = weights ? 8.36 : 7.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quant::calibrate_to_group_precision(spec, target, opts).alpha);
  }
  state.SetLabel(weights ? "signed-g16" : "unsigned-g256");
}
BENCHMARK(BM_CalibrateToGroupPrecision)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SyntheticWeightStats(benchmark::State& state) {
  // LayerWorkload's one weight-statistics pass (effective precision,
  // essential planes, NAF terms) over a 1024 x 2048 FC layer: 2M weights,
  // exactly the sampling cap, drawn from the calibrated Pw-11 spec. The
  // calibration is memoized process-wide, so iterations time the stream.
  nn::Network net("bench", nn::Shape3{1024, 1, 1});
  net.add_fc("fc", 2048);
  quant::PrecisionProfile p;
  p.network = "bench";
  p.conv_act = {9};
  p.conv_weight = 11;
  p.fc_weight = {11};
  quant::apply_profile(net, p);
  for (auto _ : state) {
    sim::NetworkWorkload wl(net, p);
    benchmark::DoNotOptimize(wl.layer(0).naf_weight_terms());
  }
  state.SetItemsProcessed(state.iterations() * net.layer(0).weight_count());
}
BENCHMARK(BM_SyntheticWeightStats)->Unit(benchmark::kMillisecond);

void BM_MakeWeightTensor(benchmark::State& state) {
  // Materializing an fc7-sized weight tensor (4096 x 4096 = 16.8M values)
  // at the registry's synthetic weight spec: model registration's cost.
  const nn::SyntheticSpec spec{.precision = 11, .alpha = 3.0, .is_signed = true};
  constexpr std::int64_t kCount = 4096 * 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::make_weight_tensor(kCount, spec, 7, 1).data().data());
  }
  state.SetItemsProcessed(state.iterations() * kCount);
}
BENCHMARK(BM_MakeWeightTensor)->Unit(benchmark::kMillisecond);

// ---- Functional fast path -------------------------------------------------

/// The VGG-scale conv layer both functional benches run: 64ch 28x28 -> 128
/// filters 3x3 (57.8M MACs), profile Pa 9 / Pw 11, ReLU-sparse synthetic
/// activations. The ratio BM_FunctionalConvLayerScalar /
/// BM_FunctionalConvLayer is the word-parallel kernel's single-core speedup.
struct FunctionalBenchCase {
  nn::Network net;
  nn::Tensor input;
  nn::Tensor weights;
};

FunctionalBenchCase functional_case() {
  nn::Network net("bench", nn::Shape3{64, 28, 28});
  net.add_conv("c", 128, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "bench";
  p.conv_act = {9};
  p.conv_weight = 11;
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 9, .alpha = 3.0, .is_signed = false,
                        .zero_fraction = 0.45};
  nn::SyntheticSpec wsp{.precision = 11, .alpha = 2.0, .is_signed = true};
  FunctionalBenchCase c{std::move(net), {}, {}};
  c.input = nn::make_activation_tensor(c.net.layer(0).in, act, 1, 0);
  c.weights = nn::make_weight_tensor(c.net.layer(0).weight_count(), wsp, 2, 1);
  return c;
}

void BM_FunctionalConvLayer(benchmark::State& state) {
  const FunctionalBenchCase c = functional_case();
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run_conv(c.net.layer(0), c.input, c.weights, 16));
  }
  state.SetItemsProcessed(state.iterations() * c.net.layer(0).macs());
}
BENCHMARK(BM_FunctionalConvLayer)->Unit(benchmark::kMillisecond);

void BM_FunctionalConvLayerScalar(benchmark::State& state) {
  // The scalar arch::Sip oracle on the same layer (one iteration: it is
  // the slow baseline the fast path is measured against).
  const FunctionalBenchCase c = functional_case();
  sim::FunctionalLoomEngine engine(
      sim::FunctionalOptions{.jobs = 1, .backend = "scalar"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run_conv(c.net.layer(0), c.input, c.weights, 16));
  }
  state.SetItemsProcessed(state.iterations() * c.net.layer(0).macs());
}
BENCHMARK(BM_FunctionalConvLayerScalar)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_FunctionalConvLayerThreaded(benchmark::State& state) {
  // Same layer with the kernel's stripe fan-out over the shared pool.
  const FunctionalBenchCase c = functional_case();
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run_conv(c.net.layer(0), c.input, c.weights, 16));
  }
  state.SetItemsProcessed(state.iterations() * c.net.layer(0).macs());
}
BENCHMARK(BM_FunctionalConvLayerThreaded)->Unit(benchmark::kMillisecond);

// ---- Dense-GEMM backend ------------------------------------------------------
// The speed-of-light kernel on the shapes the zoo really runs: NiN conv2
// (96ch 27x27 -> 256 filters 5x5, Pa 9 / Pw 11) and AlexNet fc7 (4096 ->
// 4096, Pw 9).

/// NiN conv2 geometry, Pa 9 / Pw 11, ReLU-sparse synthetic activations.
FunctionalBenchCase nin_conv2_case() {
  nn::Network net("nin-conv2", nn::Shape3{96, 27, 27});
  net.add_conv("conv2", 256, 5, 1, 2).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "nin-conv2";
  p.conv_act = {9};
  p.conv_weight = 11;
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 9, .alpha = 3.0, .is_signed = false,
                        .zero_fraction = 0.45};
  nn::SyntheticSpec wsp{.precision = 11, .alpha = 2.0, .is_signed = true};
  FunctionalBenchCase c{std::move(net), {}, {}};
  c.input = nn::make_activation_tensor(c.net.layer(0).in, act, 1, 0);
  c.weights = nn::make_weight_tensor(c.net.layer(0).weight_count(), wsp, 2, 1);
  return c;
}

/// AlexNet fc7 geometry: signed 16-bit activations, Pw 9 weights.
FunctionalBenchCase alexnet_fc7_case() {
  nn::Network net("alexnet-fc7", nn::Shape3{4096, 1, 1});
  net.add_fc("fc7", 4096);
  quant::PrecisionProfile p;
  p.network = "alexnet-fc7";
  p.conv_weight = 9;
  p.fc_weight = {9};
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 16, .alpha = 3.0, .is_signed = true};
  nn::SyntheticSpec wsp{.precision = 9, .alpha = 2.0, .is_signed = true};
  FunctionalBenchCase c{std::move(net), {}, {}};
  c.input = nn::make_activation_tensor(c.net.layer(0).in, act, 1, 0);
  c.weights = nn::make_weight_tensor(c.net.layer(0).weight_count(), wsp, 2, 1);
  return c;
}

void run_conv_bench(benchmark::State& state, const FunctionalBenchCase& c,
                    const char* backend) {
  sim::FunctionalLoomEngine engine(
      sim::FunctionalOptions{.jobs = 1, .backend = backend});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run_conv(c.net.layer(0), c.input, c.weights, 16));
  }
  state.SetItemsProcessed(state.iterations() * c.net.layer(0).macs());
}

void run_fc_bench(benchmark::State& state, const FunctionalBenchCase& c,
                  const char* backend) {
  sim::FunctionalLoomEngine engine(
      sim::FunctionalOptions{.jobs = 1, .backend = backend});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run_fc(c.net.layer(0), c.input, c.weights, 16));
  }
  state.SetItemsProcessed(state.iterations() * c.net.layer(0).macs());
}

void BM_GemmConvLayer(benchmark::State& state) {
  // Flat weights: every call prepares the layer's weight planes.
  run_conv_bench(state, nin_conv2_case(), "gemm");
}
BENCHMARK(BM_GemmConvLayer)->Unit(benchmark::kMillisecond);

void BM_GemmConvLayerPrepared(benchmark::State& state) {
  // The same layer from a prepared weight set, as a registered model runs
  // it: the difference to BM_GemmConvLayer is the per-call preparation.
  const FunctionalBenchCase c = nin_conv2_case();
  const sim::WeightSet weights(c.net, {c.weights});
  sim::FunctionalLoomEngine engine(
      sim::FunctionalOptions{.jobs = 1, .backend = "gemm"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_network(c.net, c.input, weights));
  }
  state.SetItemsProcessed(state.iterations() * c.net.layer(0).macs());
}
BENCHMARK(BM_GemmConvLayerPrepared)->Unit(benchmark::kMillisecond);

void BM_PrepareConvWeights(benchmark::State& state) {
  // NiN conv4's 3.5M weights (384ch 3x3 -> 1024 filters, Pw 11) into the
  // layout the process's SIMD tier runs: the one-time cost registration
  // pays per conv layer. The label names the layout.
  nn::Network net("nin-conv4", nn::Shape3{384, 6, 6});
  net.add_conv("conv4", 1024, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "nin-conv4";
  p.conv_act = {8};
  p.conv_weight = 11;
  quant::apply_profile(net, p);
  const nn::Layer& layer = net.layer(0);
  const nn::Tensor weights = nn::make_weight_tensor(
      layer.weight_count(), {.precision = 11, .alpha = 2.0, .is_signed = true},
      2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::prepare_conv(layer, weights, 11));
  }
  state.SetLabel(sim::conv_layout(layer) == sim::ConvLayout::kBytePlanes
                     ? "byte-planes"
                     : "int16-pairs");
  state.SetItemsProcessed(state.iterations() * layer.weight_count());
}
BENCHMARK(BM_PrepareConvWeights)->Unit(benchmark::kMillisecond);

void BM_GemmFcLayer(benchmark::State& state) {
  run_fc_bench(state, alexnet_fc7_case(), "gemm");
}
BENCHMARK(BM_GemmFcLayer)->Unit(benchmark::kMillisecond);

/// NiN cccp1: 96ch 54x54 -> 96 filters 1x1, Pa 8 / Pw 11. An inner length
/// of 96 leaves the GEMM little to do per packed value, so the layer is
/// bound by the im2col pack.
FunctionalBenchCase nin_cccp1_case() {
  nn::Network net("nin-cccp1", nn::Shape3{96, 54, 54});
  net.add_conv("cccp1", 96, 1, 1, 0).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "nin-cccp1";
  p.conv_act = {8};
  p.conv_weight = 11;
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 8, .alpha = 3.0, .is_signed = false,
                        .zero_fraction = 0.45};
  nn::SyntheticSpec wsp{.precision = 11, .alpha = 2.0, .is_signed = true};
  FunctionalBenchCase c{std::move(net), {}, {}};
  c.input = nn::make_activation_tensor(c.net.layer(0).in, act, 1, 0);
  c.weights = nn::make_weight_tensor(c.net.layer(0).weight_count(), wsp, 2, 1);
  return c;
}

void BM_GemmConvPointwise(benchmark::State& state) {
  run_conv_bench(state, nin_cccp1_case(), "gemm");
}
BENCHMARK(BM_GemmConvPointwise)->Unit(benchmark::kMillisecond);

void BM_LayerEpilogue(benchmark::State& state) {
  // The engine's epilogue on NiN's conv1 -> pool1 shapes: requantize a
  // 96x54x54 accumulator tensor to 8 bits with ReLU in one pass, from the
  // peak the gemm store reports (found here once, outside the loop), then
  // 3x3 stride-2 ceil-mode max pooling to 96x27x27.
  const nn::Layer pool = nn::make_pool("pool1", nn::Shape3{96, 54, 54},
                                       nn::PoolKind::kMax, 3, 2);
  nn::WideTensor acc(nn::Shape{96, 54, 54});
  const std::vector<Value> v = values(static_cast<int>(acc.elements()), 16,
                                      /*is_signed=*/true, 7);
  Wide peak = 0;
  for (std::int64_t i = 0; i < acc.elements(); ++i) {
    const Wide x = Wide{v[static_cast<std::size_t>(i)]} * 37;
    acc.set_flat(i, x);
    peak = std::max(peak, x < 0 ? -x : x);
  }
  for (auto _ : state) {
    const sim::Requantized q =
        sim::requantize_accumulators(acc, peak, 8, true);
    benchmark::DoNotOptimize(sim::pool_activations(q.output, pool));
  }
  state.SetItemsProcessed(state.iterations() * acc.elements());
}
BENCHMARK(BM_LayerEpilogue)->Unit(benchmark::kMicrosecond);

// ---- Autotuner ----------------------------------------------------------------
// A small low-Pw shape (2-bit weights, so cheap layer runs): the autotuner
// benches decide its cell and time the record.

/// Low-Pw geometry: 64ch 14x14 -> 256 filters 3x3, Pa 9 / Pw 2, dense.
FunctionalBenchCase lowpw_case() {
  nn::Network net("lowpw-bench", nn::Shape3{64, 14, 14});
  net.add_conv("c", 256, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "lowpw-bench";
  p.conv_act = {9};
  p.conv_weight = 2;
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 9, .alpha = 1.2, .is_signed = false};
  nn::SyntheticSpec wsp{.precision = 2, .alpha = 1.2, .is_signed = true};
  FunctionalBenchCase c{std::move(net), {}, {}};
  c.input = nn::make_activation_tensor(c.net.layer(0).in, act, 1, 0);
  c.weights = nn::make_weight_tensor(c.net.layer(0).weight_count(), wsp, 2, 1);
  return c;
}

void BM_AutotunerPick(benchmark::State& state) {
  // Decide the low-Pw cell by running the layer through an "auto" engine,
  // then time record() on the decided cell — the per-layer overhead of
  // "auto". The label reports the kernel the cell recorded.
  const FunctionalBenchCase c = lowpw_case();
  const nn::Layer& layer = c.net.layer(0);
  const sim::GridOptions ctx{.jobs = 1};
  const sim::SliceSpec spec{
      .act_precision = layer.act_precision,
      .weight_precision = layer.weight_precision,
      .dynamic = true};
  const sim::TuneKey key = sim::conv_tune_key(layer, spec, 1, ctx);
  sim::BackendAutotuner& tuner = sim::BackendAutotuner::instance();

  sim::FunctionalLoomEngine engine(
      sim::FunctionalOptions{.jobs = 1, .backend = "auto"});
  benchmark::DoNotOptimize(engine.run_conv(layer, c.input, c.weights, 16));
  std::string winner;
  for (const auto& d : tuner.decisions()) {
    if (d.key == key) winner = d.winner;
  }
  state.SetLabel("winner=" + (winner.empty() ? "undecided" : winner));

  std::uint64_t ns = 1000;
  for (auto _ : state) {
    tuner.record(key, "gemm", ns++);
  }
}
BENCHMARK(BM_AutotunerPick);

void BM_AutotunerColdStart(benchmark::State& state) {
  // What a saved autotune cache buys at process start. Each iteration
  // plays a fresh "process" deciding the low-Pw cell: cold (arg 0) decides
  // it on its first real layer run; warm (arg 1) loads the saved cell and
  // needs no run. layer_runs_to_decide makes the mechanism visible: 1 cold,
  // exactly 0 warm.
  const bool warm = state.range(0) != 0;
  const std::string path = "/tmp/loom_bench_autotune.bin";
  const FunctionalBenchCase c = lowpw_case();
  const nn::Layer& layer = c.net.layer(0);
  auto& tuner = sim::BackendAutotuner::instance();

  const auto decided = [&tuner] {
    for (const auto& d : tuner.decisions()) {
      if (!d.winner.empty()) return true;
    }
    return false;
  };
  const auto converge = [&]() -> int {
    sim::FunctionalLoomEngine engine(
        sim::FunctionalOptions{.jobs = 1, .backend = "auto"});
    int runs = 0;
    while (!decided() && runs < 16) {
      benchmark::DoNotOptimize(engine.run_conv(layer, c.input, c.weights, 16));
      ++runs;
    }
    return runs;
  };

  if (warm) {
    tuner.reset_for_test();
    (void)converge();
    sim::save_autotune_cache(path);
  }

  double runs_sum = 0;
  for (auto _ : state) {
    tuner.reset_for_test();
    if (warm) benchmark::DoNotOptimize(sim::load_autotune_cache(path));
    runs_sum += converge();
  }
  tuner.reset_for_test();
  if (warm) std::remove(path.c_str());
  state.SetLabel(warm ? "warm-cache" : "cold");
  state.counters["layer_runs_to_decide"] =
      runs_sum / static_cast<double>(state.iterations());
}
BENCHMARK(BM_AutotunerColdStart)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- Batched serving throughput -------------------------------------------
// Lane-packed multi-request execution vs one image at a time, in images/sec
// (items_per_second). The FC-heavy case is the serving regime the batcher
// targets: a lone request fills a handful of the 64 word lanes, so
// cross-request packing is the whole win (>= 1.5x at batch 16 is asserted
// by the baseline trajectory). The conv case is AlexNet-conv1 scale
// (stride-4 11x11 over a small image), where windows nearly fill the slabs
// already and batching only recovers the slab-tail waste.

/// AlexNet-conv1-scale: 3ch 56x56, 24 filters 11x11 stride 4 -> 12x12
/// windows (144 of 192 slab lanes filled solo; batches pack the tails).
FunctionalBenchCase conv1_scale_case() {
  nn::Network net("conv1-scale", nn::Shape3{3, 56, 56});
  net.add_conv("c1", 24, 11, 4, 0).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "conv1-scale";
  p.conv_act = {9};
  p.conv_weight = 11;
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 9, .alpha = 3.0, .is_signed = false,
                        .zero_fraction = 0.45};
  nn::SyntheticSpec wsp{.precision = 11, .alpha = 2.0, .is_signed = true};
  FunctionalBenchCase c{std::move(net), {}, {}};
  c.input = nn::make_activation_tensor(c.net.layer(0).in, act, 1, 0);
  c.weights = nn::make_weight_tensor(c.net.layer(0).weight_count(), wsp, 2, 1);
  return c;
}

/// FC-heavy: a 256 -> 96 -> 48 -> 10 MLP tail (every layer leaves most of
/// the 64 output lanes empty when run one request at a time).
struct FcBenchCase {
  nn::Network net;
  std::vector<nn::Tensor> weights;
  std::vector<nn::Tensor> inputs;
};

FcBenchCase fc_heavy_case(int batch) {
  nn::Network net("fc-heavy", nn::Shape3{256, 1, 1});
  net.add_fc("h1", 96);
  net.add_fc("h2", 48);
  net.add_fc("logits", 10);
  quant::PrecisionProfile p;
  p.network = "fc-heavy";
  p.conv_weight = 8;
  p.fc_weight = {8, 8, 8};
  quant::apply_profile(net, p);
  FcBenchCase c{std::move(net), {}, {}};
  std::uint64_t stream = 0;
  for (const auto& l : c.net.layers()) {
    if (!l.has_weights()) continue;
    nn::SyntheticSpec wsp{.precision = l.weight_precision, .alpha = 2.0,
                          .is_signed = true};
    c.weights.push_back(
        nn::make_weight_tensor(l.weight_count(), wsp, 2, stream++));
  }
  nn::SyntheticSpec act{.precision = 16, .alpha = 3.0, .is_signed = true};
  for (int r = 0; r < batch; ++r) {
    c.inputs.push_back(
        nn::make_activation_tensor(c.net.layer(0).in, act, 3,
                                   static_cast<std::uint64_t>(r)));
  }
  return c;
}

constexpr int kServeConvBatch = 8;
constexpr int kServeFcBatch = 16;

void BM_ServeBatchedConv(benchmark::State& state) {
  const FunctionalBenchCase base = conv1_scale_case();
  std::vector<nn::Tensor> inputs;
  nn::SyntheticSpec act{.precision = 9, .alpha = 3.0, .is_signed = false,
                        .zero_fraction = 0.45};
  for (int r = 0; r < kServeConvBatch; ++r) {
    inputs.push_back(nn::make_activation_tensor(
        base.net.layer(0).in, act, 1, static_cast<std::uint64_t>(r)));
  }
  const sim::WeightSet weights(base.net, {base.weights});
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run_network_batch(base.net, inputs, weights));
  }
  state.SetItemsProcessed(state.iterations() * kServeConvBatch);
}
BENCHMARK(BM_ServeBatchedConv)->Unit(benchmark::kMillisecond);

void BM_ServeSequentialConv(benchmark::State& state) {
  const FunctionalBenchCase base = conv1_scale_case();
  std::vector<nn::Tensor> inputs;
  nn::SyntheticSpec act{.precision = 9, .alpha = 3.0, .is_signed = false,
                        .zero_fraction = 0.45};
  for (int r = 0; r < kServeConvBatch; ++r) {
    inputs.push_back(nn::make_activation_tensor(
        base.net.layer(0).in, act, 1, static_cast<std::uint64_t>(r)));
  }
  const sim::WeightSet weights(base.net, {base.weights});
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
  for (auto _ : state) {
    for (const nn::Tensor& input : inputs) {
      benchmark::DoNotOptimize(engine.run_network(base.net, input, weights));
    }
  }
  state.SetItemsProcessed(state.iterations() * kServeConvBatch);
}
BENCHMARK(BM_ServeSequentialConv)->Unit(benchmark::kMillisecond);

void BM_ServeBatchedFc(benchmark::State& state) {
  const FcBenchCase c = fc_heavy_case(kServeFcBatch);
  const sim::WeightSet weights(c.net, c.weights);
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_network_batch(c.net, c.inputs, weights));
  }
  state.SetItemsProcessed(state.iterations() * kServeFcBatch);
}
BENCHMARK(BM_ServeBatchedFc);

void BM_ServeSequentialFc(benchmark::State& state) {
  const FcBenchCase c = fc_heavy_case(kServeFcBatch);
  const sim::WeightSet weights(c.net, c.weights);
  sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
  for (auto _ : state) {
    for (const nn::Tensor& input : c.inputs) {
      benchmark::DoNotOptimize(engine.run_network(c.net, input, weights));
    }
  }
  state.SetItemsProcessed(state.iterations() * kServeFcBatch);
}
BENCHMARK(BM_ServeSequentialFc);

// ---- Serving saturation sweep ---------------------------------------------
// Open-loop arrivals against a live InferenceServer: requests arrive at a
// fixed offered rate whether or not the server keeps up (a closed loop
// would self-throttle and hide the overload regime entirely). Below the
// knee the achieved rate tracks the offered rate and nothing sheds; past
// it the admission controller sheds best-effort work at the watermark
// instead of letting the queue and p99 grow without bound. Counters per
// offered rate: achieved_rps, p99_ms (end-to-end, completed requests) and
// shed_rate — the throughput/latency knee in one sweep.
void BM_ServeSaturation(benchmark::State& state) {
  const auto offered_rps = static_cast<double>(state.range(0));
  constexpr int kRequests = 96;

  serve::ModelRegistry registry;
  {
    FcBenchCase c = fc_heavy_case(1);
    quant::PrecisionProfile p;
    p.network = "fc-heavy";
    p.conv_weight = 8;
    p.fc_weight = {8, 8, 8};
    registry.add("fc-heavy", std::move(c.net), p, std::move(c.weights));
  }
  const auto model = registry.find("fc-heavy");

  serve::ServeOptions opts;
  opts.max_batch = 8;
  opts.batch_deadline = std::chrono::microseconds(200);
  opts.queue_depth = 16;
  opts.workers = 1;
  opts.engine.jobs = 1;

  double completed = 0;
  double not_admitted = 0;
  double p99_ns = 0;
  for (auto _ : state) {
    serve::InferenceServer server(registry, opts);
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(kRequests);
    const auto gap = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 / offered_rps));
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRequests; ++i) {
      std::this_thread::sleep_until(start + i * gap);
      serve::SubmitOptions sopts;
      sopts.priority = serve::Priority::kBestEffort;
      try {
        futures.push_back(server.try_submit(
            model, model->make_input(/*seed=*/77, /*stream=*/i),
            std::chrono::microseconds(0), sopts));
      } catch (const OverloadError&) {
        ++not_admitted;  // open loop: shed and move on, never stall arrivals
      }
    }
    for (auto& f : futures) f.wait();
    server.stop();
    const serve::ServerStats stats = server.stats();
    completed += static_cast<double>(stats.completed);
    p99_ns = stats.latency_all().p99();
  }
  const auto iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["offered_rps"] = offered_rps;
  state.counters["achieved_rps"] = benchmark::Counter(
      completed, benchmark::Counter::kIsRate);
  state.counters["p99_ms"] = p99_ns * 1e-6;
  state.counters["shed_rate"] =
      (iters * kRequests - completed) / (iters * kRequests);
}
BENCHMARK(BM_ServeSaturation)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Memory-hierarchy timing core ----------------------------------------

/// VGG conv2_1 geometry (128ch 112x112 -> 128 filters 3x3): its packed
/// activations spill the 1 MB AM, so the tile scheduler has real work —
/// window-slab search, dataflow choice, per-slab packed fills.
mem::TilePlanRequest vgg_spill_request() {
  mem::TilePlanRequest req;
  req.windows = 112 * 112;
  req.out_w = 112;
  req.group_out_channels = 128;
  req.inner_length = 128 * 9;
  req.group_in_channels = 128;
  req.in_h = 112;
  req.in_w = 112;
  req.kernel_h = 3;
  req.stride = 1;
  req.pad = 1;
  req.window_quantum = 16;
  req.filter_quantum = 128;
  req.act_precision = 9;
  req.weight_precision = 12;
  req.weights_bit_packed = true;
  req.out_precision = 9;
  req.am_bits = (1 << 20) * 8;
  req.wm_bits = (2 << 20) * 8;
  return req;
}

void BM_TilePlanBuild(benchmark::State& state) {
  const mem::TilePlanRequest req = vgg_spill_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem::build_tile_plan(req));
  }
  state.SetItemsProcessed(state.iterations() * req.windows);
}
BENCHMARK(BM_TilePlanBuild);

void BM_MemoryBoundVggConv(benchmark::State& state) {
  // The full constrained-mode layer simulation (tile plan + per-tile
  // compute callbacks + the double-buffered timeline) on the AM-spilling
  // VGG conv — the steady-state cost the default roster sweeps pay per
  // layer on top of the pure compute model.
  nn::Network net("bench-mem", nn::Shape3{128, 112, 112});
  net.add_conv("c", 128, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "bench-mem";
  p.conv_act = {9};
  p.conv_weight = 12;
  quant::apply_profile(net, p);
  sim::NetworkWorkload wl(std::move(net), p);

  sim::SimOptions opts;
  opts.model_offchip = true;
  sim::LoomSimulator sim(arch::LoomConfig{}, opts);
  // Warm the workload's OR planes/precision table once so the loop times
  // the engine, not the one-time calibration.
  benchmark::DoNotOptimize(sim.run(wl));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(wl));
  }
  state.SetItemsProcessed(state.iterations() *
                          (112 * 112 / 16));  // window blocks per run
}
BENCHMARK(BM_MemoryBoundVggConv)->Unit(benchmark::kMillisecond);

// ---- Sharded serving ------------------------------------------------------

std::shared_ptr<serve::ModelRegistry> router_bench_registry() {
  auto registry = std::make_shared<serve::ModelRegistry>();
  FcBenchCase c = fc_heavy_case(1);
  quant::PrecisionProfile p;
  p.network = "fc-heavy";
  p.conv_weight = 8;
  p.fc_weight = {8, 8, 8};
  registry->add("fc-heavy", std::move(c.net), p, std::move(c.weights));
  return registry;
}

// Closed-loop throughput through a 2-shard router while the busiest shard
// is killed twice per iteration: the cost of failover + circuit-breaker
// recovery, not just the happy path. recovery_ms is the router-measured
// kill -> healthy re-entry time.
void BM_RouterFailover(benchmark::State& state) {
  const auto registry = router_bench_registry();
  const auto model = registry->find("fc-heavy");
  constexpr int kRequests = 64;

  serve::RouterOptions opts;
  opts.shards = 2;
  opts.shard.max_batch = 8;
  opts.shard.batch_deadline = std::chrono::microseconds(200);
  opts.shard.queue_depth = 32;
  opts.shard.workers = 1;
  opts.shard.engine.jobs = 1;
  opts.probation_backoff = std::chrono::milliseconds(1);

  double completed = 0;
  double recovery_ms = 0;
  double recoveries = 0;
  for (auto _ : state) {
    serve::ShardRouter router(registry, opts);
    const std::vector<int> rank = router.rank_shards("fc-heavy", "default");
    for (int i = 0; i < kRequests; ++i) {
      if (i == kRequests / 4 || i == (3 * kRequests) / 4) {
        router.kill_shard(rank[0]);  // traffic restarts it via probation
      }
      benchmark::DoNotOptimize(
          router.submit("fc-heavy", model->make_input(/*seed=*/77, i)));
    }
    router.stop();
    const serve::RouterStats stats = router.stats();
    completed += static_cast<double>(stats.completed);
    recovery_ms = stats.recovery_ms.mean();
    recoveries += static_cast<double>(stats.recovery_ms.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["achieved_rps"] =
      benchmark::Counter(completed, benchmark::Counter::kIsRate);
  state.counters["recovery_ms"] = recovery_ms;
  state.counters["recoveries"] =
      recoveries / static_cast<double>(state.iterations());
}
BENCHMARK(BM_RouterFailover)->Unit(benchmark::kMillisecond);

// Restoring a model from a checksummed binary snapshot vs rebuilding it
// from scratch (synthesize weights + calibrate): the crash-recovery and
// cold-start win the snapshot format buys.
void BM_SnapshotLoad(benchmark::State& state) {
  const std::string path = "/tmp/loom_bench_snapshot.bin";
  double rebuild_ns = 0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    serve::ModelRegistry registry;
    FcBenchCase c = fc_heavy_case(1);
    quant::PrecisionProfile p;
    p.network = "fc-heavy";
    p.conv_weight = 8;
    p.fc_weight = {8, 8, 8};
    registry.add("fc-heavy", std::move(c.net), p, std::move(c.weights));
    rebuild_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    serve::save_snapshot(*registry.find("fc-heavy"), path);
  }

  double load_ns = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(serve::load_snapshot(path));
    load_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  std::remove(path.c_str());
  const double mean_load =
      load_ns / static_cast<double>(state.iterations());
  state.counters["rebuild_ms"] = rebuild_ns * 1e-6;
  state.counters["load_ms"] = mean_load * 1e-6;
  state.counters["speedup_vs_rebuild"] =
      mean_load > 0 ? rebuild_ns / mean_load : 0.0;
}
BENCHMARK(BM_SnapshotLoad);

}  // namespace

BENCHMARK_MAIN();
