// infer_zoo: one client in a closed loop running FunctionalLoomEngine::
// run_network with jobs=1 at batch 1, alternating NiN and AlexNet images
// (100% profiles, ModelRegistry::add_synthetic weights).
//
// Kernel choice: the autotuner decides each cell from one timing per
// backend, and on a shared host those single timings pick a different
// kernel mix in each process (on a 4-vCPU Xeon one process timed NiN conv2
// at 569 ms with lut and 730 ms with lut-outer, the next at 716 and 617 ms;
// six processes ran from 0.55 to 0.70 images/s). So `tune` runs the
// autotuner's own exploration kTuneRounds times in one process and keeps,
// per cell, the backend with the lowest median; the measuring process loads
// that result as a persistent autotune cache (--tuned), as a deployment
// with LOOM_AUTOTUNE_CACHE would.
//
// Set-up (timed): registration of both models, loading the tuned cache, then
// warm-up passes until the autotuner has a winner for every cell the
// workload touches. Measuring then runs for --seconds; autotuner exploration
// must stay at zero. One image per network is checked against the
// nn::reference chain afterwards, outside the timed region. The traced run
// adds the per-layer breakdown: run_conv/run_fc on each weighted layer's
// real input, the glue time (pooling, requantization, allocation) left over
// in run_network, modelled cycles, and registration against snapshot load.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "nn/reference.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "serve/model_snapshot.hpp"
#include "sim/autotune_cache.hpp"
#include "sim/backend.hpp"
#include "sim/functional.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace loom;

// ---- helpers shared by the engine workloads --------------------------------

std::size_t undecided_autotune_cells() {
  std::size_t n = 0;
  for (const auto& d : sim::BackendAutotuner::instance().decisions()) {
    if (d.winner.empty()) ++n;
  }
  return n;
}

std::uint64_t autotune_explore_records() {
  return sim::BackendAutotuner::instance().cache_stats().explore_records;
}

std::string autotune_decisions_note() {
  std::string note;
  for (const auto& d : sim::BackendAutotuner::instance().decisions()) {
    note += (note.empty() ? "" : "; ") + d.key.to_string() + " -> " +
            (d.winner.empty() ? "undecided" : d.winner);
  }
  return note;
}

int warm_until_decided(const std::function<void()>& pass, int max_passes) {
  for (int i = 1; i <= max_passes; ++i) {
    pass();
    if (undecided_autotune_cells() == 0) return i;
  }
  return -1;
}

void measure_snapshot_load(const serve::Model& model, const std::string& path,
                           Report& report, int reps) {
  {
    ScopedSpan span("serve.save_snapshot." + model.name);
    serve::save_snapshot(model, path);
  }
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span("serve.load_snapshot." + model.name);
    const auto t0 = Clock::now();
    const auto loaded = serve::load_snapshot(path);
    ms.push_back(ms_since(t0));
    if (loaded->weights != model.weights) {
      report.fail("snapshot of " + model.name + " does not round-trip");
    }
  }
  std::filesystem::remove(path);
  report.set("setup.snapshot_load_ms." + model.name, median(ms), "ms", reps);
}

namespace {

const std::vector<std::string> kNets = {"nin", "alexnet"};
constexpr int kTuneRounds = 5;

/// One weighted layer of a finished run, with the input it consumed.
struct LayerCall {
  const nn::Layer* layer = nullptr;
  nn::Tensor input;
  const nn::Tensor* weights = nullptr;
  const sim::FunctionalLayerRun* run = nullptr;
};

/// Rebuild every weighted layer's real input from a run's layer outputs
/// (pooling in between through nn::pool_forward); `final_out` receives the
/// network output that chain implies.
std::vector<LayerCall> layer_calls(const serve::Model& m, const nn::Tensor& image,
                                   const sim::FunctionalNetworkRun& run,
                                   nn::Tensor& final_out) {
  std::vector<LayerCall> calls;
  nn::Tensor cur = image;
  std::size_t wi = 0;
  for (const nn::Layer& layer : m.net.layers()) {
    if (layer.kind == nn::LayerKind::kPool) {
      cur = nn::pool_forward(cur, layer);
      continue;
    }
    calls.push_back(LayerCall{&layer, cur, &m.weights[wi], &run.layers[wi]});
    cur = run.layers[wi].output;
    ++wi;
  }
  final_out = std::move(cur);
  return calls;
}

/// The nn::reference chain, one layer per task: each weighted layer's exact
/// accumulators and requantized output are recomputed from the same input
/// the engine consumed, so by induction the whole chain matches when every
/// layer does. Layers run in parallel, largest first.
bool matches_reference(const serve::Model& m, const nn::Tensor& image,
                       const sim::FunctionalNetworkRun& run, bool relu,
                       std::string& why) {
  nn::Tensor chained;
  std::vector<LayerCall> calls = layer_calls(m, image, run, chained);
  if (!(chained == run.output)) {
    why = m.name + ": network output is not its last layer's output";
    return false;
  }
  std::sort(calls.begin(), calls.end(), [](const LayerCall& a, const LayerCall& b) {
    return a.layer->macs() > b.layer->macs();
  });
  std::atomic<std::size_t> next{0};
  std::mutex why_mutex;
  bool ok = true;
  const auto worker = [&] {
    for (std::size_t i = next++; i < calls.size(); i = next++) {
      const LayerCall& c = calls[i];
      const nn::WideTensor ref =
          c.layer->kind == nn::LayerKind::kConv
              ? nn::conv_forward(c.input, *c.weights, *c.layer)
              : nn::fc_forward(c.input, *c.weights, *c.layer);
      const int shift = nn::choose_requant_shift(ref, c.run->out_bits);
      const bool same = ref == c.run->wide &&
                        nn::requantize(ref, shift, c.run->out_bits, relu) ==
                            c.run->output;
      if (!same) {
        const std::lock_guard<std::mutex> lock(why_mutex);
        ok = false;
        why = m.name + "/" + c.layer->name + " differs from nn::reference";
      }
    }
  };
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return ok;
}

std::shared_ptr<const serve::Model> register_zoo(serve::ModelRegistry& registry,
                                                 const std::string& name,
                                                 std::uint64_t seed) {
  nn::Network net = nn::zoo::make(name);
  const quant::PrecisionProfile& profile =
      quant::profile_for(name, quant::AccuracyTarget::k100);
  quant::apply_profile(net, profile);
  return registry.add_synthetic(name, std::move(net), profile, seed);
}

/// Traced per-layer breakdown of one network on the checked image. Glue is
/// one run_network of that image, timed just before the layer calls, minus
/// the layers' medians; GMAC/s uses the closed loop's median `loop_ms`.
void layer_breakdown(sim::FunctionalLoomEngine& engine, const serve::Model& m,
                     const nn::Tensor& image, const sim::FunctionalNetworkRun& run,
                     double loop_ms, Report& report) {
  ScopedSpan pass("engine.layer_pass." + m.name);
  double network_ms = 0.0;
  {
    ScopedSpan span("engine.run_network." + m.name, pass.id());
    const auto t0 = Clock::now();
    (void)engine.run_network(m.net, image, m.weights);
    network_ms = ms_since(t0);
  }
  nn::Tensor unused;
  double layers_ms = 0.0;
  for (const LayerCall& c : layer_calls(m, image, run, unused)) {
    std::vector<double> ms;
    double spent = 0.0;
    while (ms.empty() || (ms.size() < 3 && spent < 300.0)) {
      ScopedSpan span((c.layer->kind == nn::LayerKind::kConv ? "engine.run_conv."
                                                             : "engine.run_fc.") +
                          m.name + "." + c.layer->name,
                      pass.id());
      const auto t0 = Clock::now();
      const sim::FunctionalLayerRun lr =
          c.layer->kind == nn::LayerKind::kConv
              ? engine.run_conv(*c.layer, c.input, *c.weights, c.run->out_bits)
              : engine.run_fc(*c.layer, c.input, *c.weights, c.run->out_bits);
      ms.push_back(ms_since(t0));
      spent += ms.back();
      if (!(lr.output == c.run->output)) {
        report.fail(m.name + "/" + c.layer->name +
                    ": layer call differs from run_network");
      }
    }
    const double layer_ms = median(ms);
    layers_ms += layer_ms;
    report.set("engine.layer_ms." + m.name + "." + c.layer->name, layer_ms, "ms",
               static_cast<std::int64_t>(ms.size()));
  }
  report.set("engine.glue_ms." + m.name, network_ms - layers_ms, "ms");
  report.set("engine.gmac_per_s." + m.name,
             static_cast<double>(m.net.total_macs()) / (loop_ms * 1e6), "GMAC/s");
}

/// One warm-up or tuning pass: every network once on a fixed input.
std::function<void()> zoo_pass(sim::FunctionalLoomEngine& engine,
                               const std::vector<std::shared_ptr<const serve::Model>>& models,
                               std::uint64_t seed) {
  return [&engine, &models, seed] {
    for (const auto& m : models) {
      (void)engine.run_network(m->net, m->make_input(seed, 999'999), m->weights);
    }
  };
}

}  // namespace

void run_infer_zoo_tune(const Args& args, Report& report) {
  const std::string path = args.get("tuned", "");
  if (path.empty()) throw std::invalid_argument("tune needs --tuned PATH");
  // The cells depend on layer geometry and profile precisions only, not on
  // the seed, so one tuning serves every run.
  serve::ModelRegistry registry;
  std::vector<std::shared_ptr<const serve::Model>> models;
  for (std::size_t k = 0; k < kNets.size(); ++k) {
    models.push_back(register_zoo(registry, kNets[k], k));
  }
  sim::FunctionalOptions eopts;
  eopts.jobs = 1;
  sim::FunctionalLoomEngine engine(eopts);
  sim::BackendAutotuner& tuner = sim::BackendAutotuner::instance();
  std::map<sim::TuneKey, std::vector<std::string>> candidates;
  std::map<sim::TuneKey, std::map<std::string, std::vector<double>>> ns;
  for (int r = 0; r < kTuneRounds; ++r) {
    tuner.reset_for_test();  // forget the winners: explore every cell again
    if (warm_until_decided(zoo_pass(engine, models, 0), 8) < 0) {
      report.fail("autotuner still exploring after 8 tuning passes");
      return;
    }
    for (const auto& d : tuner.decisions()) {
      candidates[d.key].clear();
      for (const auto& s : d.samples) {
        candidates[d.key].push_back(s.backend);
        ns[d.key][s.backend].push_back(static_cast<double>(s.ns));
      }
    }
  }
  std::vector<sim::BackendAutotuner::Decision> tuned;
  for (const auto& [key, names] : candidates) {
    sim::BackendAutotuner::Decision d;
    d.key = key;
    double best = 0.0;
    for (const std::string& name : names) {  // candidate order breaks ties
      const double m = median(ns[key][name]);
      d.samples.push_back({name, static_cast<std::uint64_t>(m)});
      if (d.winner.empty() || m < best) {
        best = m;
        d.winner = name;
      }
    }
    tuned.push_back(std::move(d));
  }
  tuner.reset_for_test();
  tuner.install(tuned);
  sim::save_autotune_cache(path);
  report.set("tune.rounds", kTuneRounds, "count");
  report.set("tune.cells", static_cast<double>(tuned.size()), "count");
  report.notes["autotune.decisions"] = autotune_decisions_note();
}

void run_infer_zoo(const Args& args, Report& report) {
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  const double seconds = args.num("seconds", 10.0);
  const bool traced = Tracer::instance().enabled();

  // ---- set-up: registration + autotuner warm-up ----------------------------
  const auto setup_t0 = Clock::now();
  serve::ModelRegistry registry;
  std::vector<std::shared_ptr<const serve::Model>> models;
  std::vector<double> register_ms;
  for (std::size_t k = 0; k < kNets.size(); ++k) {
    ScopedSpan span("serve.register." + kNets[k]);
    const auto t0 = Clock::now();
    models.push_back(register_zoo(registry, kNets[k], seed * 1000 + k));
    register_ms.push_back(ms_since(t0));
  }
  const std::string tuned = args.get("tuned", "");
  if (!tuned.empty()) {
    ScopedSpan span("sim.load_autotune_cache");
    report.set("autotune.tuned_cells",
               static_cast<double>(sim::load_autotune_cache(tuned)), "count");
  }
  sim::FunctionalOptions eopts;
  eopts.jobs = 1;
  sim::FunctionalLoomEngine engine(eopts);
  int warm_passes = 0;
  {
    ScopedSpan span("engine.autotune_warmup");
    warm_passes = warm_until_decided(zoo_pass(engine, models, seed), 8);
  }
  const double setup_s = ms_since(setup_t0) / 1e3;
  report.set("setup_s", setup_s, "s");
  if (warm_passes < 0) report.fail("autotuner still exploring after 8 warm-up passes");
  report.notes["warmup_passes"] = std::to_string(warm_passes);
  report.notes["autotune.decisions"] = autotune_decisions_note();

  // ---- measure: closed loop, NiN and AlexNet alternating --------------------
  std::vector<std::vector<double>> lat(kNets.size());
  std::vector<nn::Tensor> checked_input(kNets.size());
  std::vector<sim::FunctionalNetworkRun> checked_run(kNets.size());
  const std::uint64_t explore_before = autotune_explore_records();
  const auto measure_t0 = Clock::now();
  std::int64_t images = 0;
  for (std::uint64_t i = 0;; ++i) {
    const std::size_t k = i % kNets.size();
    if (k == 0 && ms_since(measure_t0) >= seconds * 1e3 && lat[0].size() >= 2) {
      break;
    }
    const serve::Model& m = *models[k];
    nn::Tensor input = m.make_input(seed, i);
    ++report.attempted;
    ScopedSpan span("engine.run_network." + m.name, 0, static_cast<std::int64_t>(i));
    const auto t0 = Clock::now();
    sim::FunctionalNetworkRun run = engine.run_network(m.net, input, m.weights);
    lat[k].push_back(ms_since(t0));
    ++images;
    if (lat[k].size() == 1) {
      checked_input[k] = std::move(input);
      checked_run[k] = std::move(run);
    }
  }
  const double measure_s = ms_since(measure_t0) / 1e3;
  const std::uint64_t explored = autotune_explore_records() - explore_before;
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.set("images_per_s", static_cast<double>(images) / measure_s, "1/s", images);
  // One NiN + one AlexNet image back to back; its median is steadier than
  // the loop mean, which a single stalled image moves.
  std::vector<double> pair_ms;
  for (std::size_t j = 0; j < lat[1].size(); ++j) {
    pair_ms.push_back(lat[0][j] + lat[1][j]);
  }
  report.set("pair_ms_p50", median(pair_ms), "ms",
             static_cast<std::int64_t>(pair_ms.size()));
  for (std::size_t k = 0; k < kNets.size(); ++k) {
    report.set(kNets[k] + "_ms_p50", median(lat[k]), "ms",
               static_cast<std::int64_t>(lat[k].size()));
    std::string samples;
    for (const double v : lat[k]) {
      if (!samples.empty()) samples += ' ';
      samples += std::to_string(v);
    }
    report.notes["samples_ms." + kNets[k]] = samples;
  }
  report.set("autotune.explore_records", static_cast<double>(explored), "count");
  if (explored != 0) report.fail("autotuner explored while measuring");

  // ---- correctness and kernel choices ---------------------------------------
  for (std::size_t k = 0; k < kNets.size(); ++k) {
    const serve::Model& m = *models[k];
    const sim::FunctionalNetworkRun& run = checked_run[k];
    std::string kernels;
    for (const auto& lr : run.layers) {
      kernels += (kernels.empty() ? "" : ",") + lr.name + "=" + lr.backend;
    }
    report.notes["kernels." + m.name] = kernels;
    report.set("functional_cycles." + m.name, static_cast<double>(run.total_cycles),
               "cycles");
    std::string why;
    ScopedSpan span("check.reference." + m.name);
    if (!matches_reference(m, checked_input[k], run, engine.options().relu, why)) {
      report.fail(why);
      ++report.failed;
    }
  }

  if (!traced) return;
  // ---- traced per-layer breakdown and cold start ----------------------------
  for (std::size_t k = 0; k < kNets.size(); ++k) {
    layer_breakdown(engine, *models[k], checked_input[k], checked_run[k],
                    median(lat[k]), report);
    report.set("setup.register_ms." + kNets[k], register_ms[k], "ms");
    measure_snapshot_load(*models[k],
                          args.get("out-dir", ".") + "/snapshot-" + kNets[k] + ".bin",
                          report, 3);
  }
  if (autotune_explore_records() != explore_before) {
    report.fail("autotuner explored during the per-layer calls");
  }
}

}  // namespace perfbench
