// Functional backend registry + per-layer autotuner.
//
// A FunctionalBackend is one interchangeable kernel implementation of the
// functional engines' layer math: exact integer conv/FC accumulators plus
// the analytic streaming statistics (ConvStats, sim/gemm_engine.hpp) the
// dispatcher-driven scalar grid would report. Every backend is held to the
// same contract — byte-identical accumulators AND byte-identical stats —
// so FunctionalLoomEngine can swap kernels per layer without any observable
// difference beyond wall-clock time (pinned by
// tests/test_backend_differential.cpp).
//
// Registered built-ins:
//   scalar     — the arch::Sip oracle, bit-by-bit through a dispatcher
//                (ground truth; never an autotuner candidate)
//   gemm       — dense int16 GEMM plus the shared streaming-statistics pass
//                (sim/gemm_engine.hpp); the word-parallel exact kernel
//
// Backend selection (resolve_backend_name): FunctionalOptions::force_scalar
// or LOOM_FUNCTIONAL_SCALAR pick "scalar"; otherwise FunctionalOptions::
// backend, where "" means "auto". "auto" hands each (layer geometry,
// precision, batch) cell to the BackendAutotuner, which samples every
// tunable backend once on the real layer run, memoizes the fastest, and
// exposes its decisions. A named backend that cannot pack the grid falls
// back to "scalar", matching the historical cols>64 behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "sim/gemm_engine.hpp"

namespace loom::sim {

/// One functional kernel. Conv returns the analytic streaming stats; FC
/// reports none (the FC cycle model is analytic in the engine). Instances
/// are engine-confined: calls need no internal synchronization beyond what
/// the implementation's own (group, slab) fan-out does.
class FunctionalBackend {
 public:
  virtual ~FunctionalBackend() = default;

  virtual ConvStats run_conv_batch(const nn::Layer& layer,
                                   std::span<const nn::Tensor* const> inputs,
                                   const nn::Tensor& weights,
                                   const SliceSpec& spec,
                                   std::span<nn::WideTensor* const> wides) = 0;

  virtual void run_fc(const nn::Layer& layer, const nn::Tensor& input,
                      const nn::Tensor& weights, int weight_precision,
                      nn::WideTensor& wide) = 0;

  virtual void run_fc_batch(const nn::Layer& layer,
                            std::span<const nn::Tensor* const> inputs,
                            const nn::Tensor& weights, int weight_precision,
                            std::span<nn::WideTensor* const> wides) = 0;
};

/// Registry entry: plain function pointers so registration is a static
/// data operation (no captured state to synchronize).
struct BackendInfo {
  std::string name;
  /// Autotuner candidate? The scalar oracle is registered non-tunable: it
  /// exists for ground truth and fallback, and is never competitive.
  bool tunable = false;
  bool (*supports)(const GridOptions&) = nullptr;
  std::unique_ptr<FunctionalBackend> (*make)(const GridOptions&) = nullptr;
};

/// Process-wide named-backend table. Built-ins self-register on first
/// access; tests may register additional backends (by a fresh name, or
/// re-registering an existing one replaces it) and they automatically gain
/// differential-test coverage.
class BackendRegistry {
 public:
  static BackendRegistry& instance();

  void register_backend(BackendInfo info);
  /// nullptr when `name` is not registered.
  [[nodiscard]] const BackendInfo* find(std::string_view name) const;
  /// Every registered name, in registration order.
  [[nodiscard]] std::vector<std::string> names() const;
  /// Tunable backends whose supports() accepts `ctx`, registration order —
  /// the autotuner candidate list (deterministic sampling order).
  [[nodiscard]] std::vector<std::string> tunable_names(
      const GridOptions& ctx) const;

 private:
  BackendRegistry();
  struct Impl;
  Impl* impl_;  // leaked singleton state, never destroyed
};

/// Resolve the backend an engine will run: "scalar", "auto", or a concrete
/// registered name. `requested` is FunctionalOptions::backend ("" = defer
/// to "auto"). force_scalar / LOOM_FUNCTIONAL_SCALAR outrank any request
/// (preserved escape hatch). Unknown names throw ConfigError; a known name
/// (or "auto" with no viable candidate) that cannot pack `ctx` resolves to
/// "scalar".
[[nodiscard]] std::string resolve_backend_name(std::string_view requested,
                                               bool force_scalar,
                                               const GridOptions& ctx);

/// One autotuner memoization cell: a layer's geometry + streamed
/// precisions + batch + grid + thread fan-out. Everything that changes
/// which kernel wins (jobs matters: the kernels scale differently with
/// stripe count, and a persisted winner must not leak across fan-outs).
struct TuneKey {
  int kind = 0;  ///< 0 = conv, 1 = fc
  std::int64_t in_c = 0, in_h = 0, in_w = 0, out_c = 0;
  int kernel_h = 0, kernel_w = 0, stride = 1, pad = 0, groups = 1;
  int pa = 0, pw = 0;
  bool act_signed = false;
  bool dynamic = false;
  int batch = 1;
  int rows = 0, cols = 0, lanes = 0, jobs = 0;

  friend bool operator==(const TuneKey&, const TuneKey&) = default;
  friend auto operator<=>(const TuneKey&, const TuneKey&) = default;
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] TuneKey conv_tune_key(const nn::Layer& layer,
                                    const SliceSpec& spec,
                                    int batch, const GridOptions& ctx);
[[nodiscard]] TuneKey fc_tune_key(const nn::Layer& layer, int weight_precision,
                                  int batch, const GridOptions& ctx);

/// Thread-safe process-wide winner memo. choose() hands back the memoized
/// winner, or — while a cell is still being explored — the next unsampled
/// candidate so the timing piggybacks on a real layer run (every candidate
/// computes identical bytes, so exploration is free of rework). record()
/// feeds the measured wall clock back; once every candidate has a sample
/// the argmin wins (first-registered wins ties). Timing can be overridden
/// with an injected function for deterministic autotuner tests.
class BackendAutotuner {
 public:
  static BackendAutotuner& instance();

  [[nodiscard]] std::string choose(const TuneKey& key,
                                   std::span<const std::string> candidates);
  void record(const TuneKey& key, std::string_view backend, std::uint64_t ns);

  struct Sample {
    std::string backend;
    std::uint64_t ns = 0;
  };
  struct Decision {
    TuneKey key;
    std::string winner;  ///< empty while the cell is still exploring
    std::vector<Sample> samples;
  };
  /// Snapshot of every cell, deterministic (key-sorted) order.
  [[nodiscard]] std::vector<Decision> decisions() const;

  /// Install decided cells parsed from a persistent cache
  /// (sim/autotune_cache.hpp): each becomes a memoized winner, so choose()
  /// answers immediately — no per-process re-measurement. Entries without a
  /// winner, whose winner is not among their samples, or whose key already
  /// has a cell are skipped. Returns the number installed.
  std::size_t install(std::span<const Decision> decisions);

  /// Cross-process memoization counters. hits/misses are per choose() call:
  /// a hit means a cache-installed winner answered; explore_records counts
  /// record() calls that fed a still-undecided cell (zero on a process that
  /// started from a warm cache). Process-wide, like the autotuner itself.
  struct CacheStats {
    std::uint64_t loaded_cells = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t explore_records = 0;
  };
  [[nodiscard]] CacheStats cache_stats() const;

  /// Deterministic timing for tests: when set, choose() samples every
  /// candidate through `fn` immediately and decides the cell. Null resets
  /// to wall-clock timing.
  void set_timing_override_for_test(
      std::function<std::uint64_t(const TuneKey&, const std::string&)> fn);
  /// Drop all cells and zero the cache counters.
  void reset_for_test();

 private:
  BackendAutotuner();
  struct Impl;
  Impl* impl_;  // leaked singleton state, never destroyed
};

}  // namespace loom::sim
