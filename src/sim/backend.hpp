// The functional engine's two kernels, how one is selected, and the
// per-layer autotuner.
//
// The engine (sim/functional.hpp) runs each layer on one of two kernels:
//   gemm    — dense int16 GEMM plus the shared streaming-statistics pass
//             (GemmEngine, sim/gemm_engine.hpp); the word-parallel exact
//             kernel
//   scalar  — the architecture's oracle: SipGridOracle below for Loom, the
//             arch::IpUnit loops (sim/dpnn_functional.hpp) for DPNN
// Both are held to one contract — byte-identical accumulators AND
// byte-identical stats — so the choice changes nothing but wall-clock time
// (pinned by tests/test_backend_differential.cpp).
//
// Selection (resolve_backend_name): LOOM_FUNCTIONAL_SCALAR=1 or
// FunctionalOptions::backend = "scalar" pick the oracle; "gemm" picks gemm,
// or the oracle on a grid gemm cannot pack; "" and "auto" hand each
// (layer geometry, precision, batch) cell to the BackendAutotuner with the
// one candidate "gemm", and fall back to the oracle on an unpackable grid.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/dispatcher.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "sim/gemm_engine.hpp"

namespace loom::sim {

/// Loom's scalar oracle: one arch::Sip per (row, column), driven bit by bit
/// through a dispatcher. It defines the semantics gemm is pinned against.
/// A batch runs as N solo passes (the batching-semantics oracle). Conv
/// returns the ConvStats deltas of the oracle's own dispatcher, so the
/// engine folds them into its dispatcher as it does gemm's; FC reports none
/// (the FC cycle model is analytic in the engine).
class SipGridOracle {
 public:
  explicit SipGridOracle(const GridOptions& grid);

  /// Unsigned activations only (the Loom conv grid).
  ConvStats run_conv_batch(const nn::Layer& layer,
                           std::span<const nn::Tensor* const> inputs,
                           const nn::Tensor& weights, const SliceSpec& spec,
                           std::span<nn::WideTensor* const> wides);

  /// Signed 16-bit activations, `weight_precision` two's-complement weights.
  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides);

 private:
  /// One (filter-block, window-block) tile pass over all input chunks.
  std::uint64_t conv_block(const nn::Layer& layer, const nn::Tensor& input,
                           const nn::Tensor& weights, const SliceSpec& spec,
                           std::int64_t g, std::int64_t fb, std::int64_t wb,
                           nn::WideTensor& wide, double& streamed_pa,
                           std::int64_t& chunks);

  GridOptions grid_;
  arch::Dispatcher dispatcher_;
  std::vector<Value> act_buf_, weight_buf_;
  std::vector<std::span<const Value>> act_spans_, weight_spans_;
  arch::ActivationStream act_stream_;
  arch::WeightStream weight_stream_;
};

/// Resolve the kernel an engine will run: "scalar", "gemm" or "auto".
/// `requested` is FunctionalOptions::backend ("" = "auto").
/// LOOM_FUNCTIONAL_SCALAR=1 outranks any request. Other names throw
/// ConfigError, as does a LOOM_FUNCTIONAL_SCALAR value other than unset,
/// "", "0" or "1". "gemm" or "auto" on a grid gemm cannot pack (supports())
/// resolves to "scalar".
[[nodiscard]] std::string resolve_backend_name(std::string_view requested,
                                               const GridOptions& grid);

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
/// the argmin wins (candidate order breaks ties). Timing can be overridden
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
