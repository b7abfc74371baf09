// The benchmark's workloads. Each fills a Report with raw measurements; the
// names, units and the mapping onto BENCHMARK.json's metrics are documented
// in run.py, which drives these entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "serve/model_registry.hpp"
#include "util.hpp"

namespace perfbench {

/// Closed loop, one client: run_network at batch 1, NiN and AlexNet
/// alternating, plus the traced per-layer breakdown.
void run_infer_zoo(const Args& args, Report& report);
/// Explore every infer_zoo autotuner cell several times and save the
/// per-cell winner by median time as an autotune cache at --tuned.
void run_infer_zoo_tune(const Args& args, Report& report);

/// Open-loop 50/50 convnet/mlp traffic through an InferenceServer, then a
/// closed-loop capacity phase.
void run_serve_mix(const Args& args, Report& report);
/// Cold set-up only (registration + autotuner warm-up) of serve_mix, for the
/// repeated fresh-process set-up samples.
void run_serve_setup(const Args& args, Report& report);

/// Process start-up plus ExperimentRunner construction: reports the
/// monotonic clock once the runner exists.
void run_sweep_setup(const Args& args, Report& report);
/// One cold Table-2 sweep (100% profiles, six networks, E=128, jobs=4).
void run_sweep_sample(const Args& args, Report& report);
/// The sweep broken down by phase: cold and warm workload preparation per
/// network and per-architecture simulation on the warm workloads.
void run_sweep_trace(const Args& args, Report& report);

// ---- helpers shared by the engine workloads (infer_zoo.cpp) ---------------

/// Autotuner cells that have no winner yet, process-wide.
[[nodiscard]] std::size_t undecided_autotune_cells();
[[nodiscard]] std::uint64_t autotune_explore_records();
/// Every autotuner cell and its winner, for explaining kernel choices.
[[nodiscard]] std::string autotune_decisions_note();

/// Call `pass` until every autotuner cell has a winner; returns the number
/// of passes, or -1 when `max_passes` were not enough.
int warm_until_decided(const std::function<void()>& pass, int max_passes);

/// Time `save_snapshot` once and `load_snapshot` (median of `reps`) of a
/// registered model through `path`; fills setup.snapshot_load_ms.<name>.
void measure_snapshot_load(const loom::serve::Model& model,
                           const std::string& path,
                           Report& report, int reps);

}  // namespace perfbench
