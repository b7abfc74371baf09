// The functional engine's two kernels, how one is selected, and the
// per-layer autotune record.
//
// The engine (sim/functional.hpp) runs each layer on one of two kernels:
//   gemm    — dense int16 GEMM plus the shared streaming-statistics pass
//             (GemmEngine, sim/gemm_engine.hpp); the word-parallel exact
//             kernel
//   scalar  — the oracle: SipGridOracle below, one arch::Sip per grid cell
// Both are held to one contract — byte-identical accumulators AND
// byte-identical stats — so the choice changes nothing but wall-clock time
// (pinned by tests/test_backend_differential.cpp).
//
// Selection (resolve_backend_name): LOOM_FUNCTIONAL_SCALAR=1 or
// FunctionalOptions::backend = "scalar" pick the oracle; "gemm" picks gemm,
// or the oracle on a grid gemm cannot pack; "" and "auto" run gemm too, and
// record each (layer geometry, precision, batch) cell's wall clock in the
// BackendAutotuner.
#pragma once

#include <cstdint>
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

  /// Unsigned activations streamed at the spec's Pa.
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

/// One autotune cell: a layer's geometry + streamed precisions + batch +
/// grid + thread fan-out (the kernels scale differently with stripe count,
/// so a recorded time must not leak across fan-outs).
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

/// Thread-safe process-wide record of the kernel each cell ran on.
/// record() creates or updates a cell: the first record decides it (its
/// kernel becomes the winner), every record keeps the minimum ns per
/// kernel, and a record that finds the cell undecided counts as an
/// exploration. A persistent cache (sim/autotune_cache.hpp) saves and
/// installs decided cells; nothing reads a winner back to pick a kernel.
class BackendAutotuner {
 public:
  static BackendAutotuner& instance();

  void record(const TuneKey& key, std::string_view backend, std::uint64_t ns);

  struct Sample {
    std::string backend;
    std::uint64_t ns = 0;
  };
  struct Decision {
    TuneKey key;
    std::string winner;  ///< set in every recorded or installed cell
    std::vector<Sample> samples;
  };
  /// Snapshot of every cell, deterministic (key-sorted) order; samples in
  /// the order their kernels were first recorded or installed.
  [[nodiscard]] std::vector<Decision> decisions() const;

  /// Install decided cells parsed from a persistent cache. Entries without
  /// a winner, whose winner is not among their samples, or whose key
  /// already has a cell are skipped. Returns the number installed.
  std::size_t install(std::span<const Decision> decisions);

  /// explore_records counts record() calls that found their cell undecided
  /// (zero on a process that installed every cell it runs). Process-wide,
  /// like the autotuner itself.
  struct CacheStats {
    std::uint64_t explore_records = 0;
  };
  [[nodiscard]] CacheStats cache_stats() const;

  /// Drop all cells and zero the counter.
  void reset_for_test();

 private:
  BackendAutotuner();
  struct Impl;
  Impl* impl_;  // leaked singleton state, never destroyed
};

}  // namespace loom::sim
