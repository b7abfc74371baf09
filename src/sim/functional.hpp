// Functional engine: executes an entire (small) network through Loom's
// bit-serial SIP grid (dispatcher serialization, WR loads, per-cycle SIP
// evaluation, cascade/OR accumulation) with requantization and pooling
// between layers, producing exact activations plus the wall-clock cycles
// the grid spent. A conv layer streams the profile Pa/Pw as unsigned
// activations, trimmed by dynamic precision detection, and its cycles come
// from the kernel's ConvStats; an FC layer streams signed 16-bit
// activations on the data-independent plan_fc_cascade schedule. Every solo
// call is a batch of one.
//
// This is the ground-truth twin of the analytic cycle model in
// loom_sim.cpp: tests assert that (a) the outputs equal the bit-parallel
// golden reference through the whole network and (b) the cycle counts of
// the two models agree (the functional counts exclude the analytic model's
// per-layer kPipelineFill constant). The bit-parallel DPNN baseline is
// analytic only (sim/dpnn_sim.hpp): its outputs would equal the reference
// by construction, and its cycles are a data-independent formula.
//
// Layer math runs on one of two kernels, each called directly: the dense
// int16 GEMM (GemmEngine) or the scalar SipGridOracle (sim/backend.hpp) —
// byte-identical in outputs, cycle counts, streamed-precision means and
// dispatcher/detector statistics (golden-pinned in
// tests/test_functional_golden.cpp and tests/test_kernel_golden.cpp, swept
// by tests/test_backend_differential.cpp, whole zoo networks in
// tests/test_zoo_equivalence.cpp). Selection (sim/backend.hpp):
// FunctionalOptions::backend "gemm" or "scalar", or "" / "auto", which runs
// gemm and records each layer's wall clock in the BackendAutotuner.
// LOOM_FUNCTIONAL_SCALAR=1 forces the scalar oracle, and configurations
// gemm cannot pack (cols > 64; lanes > 32) fall back to it automatically.
//
// Restriction: models the LM1b variant (one activation bit per cycle).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/dispatcher.hpp"
#include "nn/network.hpp"
#include "nn/reference.hpp"
#include "nn/tensor.hpp"
#include "sim/backend.hpp"
#include "sim/weight_set.hpp"

namespace loom::sim {

struct FunctionalOptions {
  int rows = 16;   ///< SIP rows (concurrent filters)
  int cols = 16;   ///< SIP columns (concurrent windows)
  int lanes = 16;  ///< products per SIP per cycle
  bool dynamic_act_precision = true;  ///< per-group precision detection
  bool relu = true;  ///< apply ReLU at requantization (hidden layers)
  bool cascading = true;  ///< SIP daisy-chaining for FC layers
  /// Worker threads for the fast backends' fan-out over the shared pool;
  /// 0 = all hardware threads, 1 = serial. Results are byte-identical for
  /// every value.
  int jobs = 0;
  /// Kernel selection: "" or "auto" (gemm, recorded per layer in the
  /// BackendAutotuner), "gemm" or "scalar" (the oracle;
  /// LOOM_FUNCTIONAL_SCALAR=1 forces it for every engine). Other names
  /// throw ConfigError at construction.
  std::string backend = {};
};

/// Where one layer call's wall clock went, in milliseconds. Timing only:
/// kept out of every golden digest and equality check. At jobs = 1 pack +
/// kernel is the kernel call's wall clock; with more jobs `pack_ms` is the
/// stripes' summed pack time and `kernel_ms` the rest of the call, floored
/// at zero. `wall_ms` times the call from before its accumulators are
/// allocated, so wall_ms - (pack + kernel + epilogue) is the time outside
/// every phase (the allocation and its first-touch page faults).
struct LayerPhases {
  double pack_ms = 0.0;      ///< im2col pack + streaming statistics
  double kernel_ms = 0.0;    ///< the multiply-accumulate kernel
  double epilogue_ms = 0.0;  ///< requantization, plus run_network's pooling
  double wall_ms = 0.0;      ///< the layer call, plus run_network's pooling
};

struct FunctionalLayerRun {
  std::string name;
  nn::Tensor output;             ///< requantized output activations
  nn::WideTensor wide;           ///< exact pre-requantization accumulators
  std::uint64_t cycles = 0;      ///< grid wall-clock cycles
  int requant_shift = 0;
  int out_bits = kBasePrecision;
  double mean_streamed_precision = 0.0;  ///< average Pa actually streamed
  /// Conv plane products per K-block, mean over slabs (gemm only; 0 for FC
  /// layers and the scalar oracle). Like phases, kept out of every golden
  /// digest and equality check.
  double mean_plane_products = 0.0;
  std::string backend;           ///< kernel that ran this layer
  LayerPhases phases;            ///< wall-clock split (timing only)
};

struct FunctionalNetworkRun {
  std::vector<FunctionalLayerRun> layers;
  nn::Tensor output;
  std::uint64_t total_cycles = 0;
};

/// One layer of a batched (multi-request) run. Outputs, accumulators and
/// requantization shifts are per request and byte-identical to running each
/// request alone; `cycles` is the grid wall clock for the *coalesced* batch
/// (Loom conv windows of all requests share the SIP columns, so this is less
/// than the sum of solo runs whenever a request leaves lanes empty).
struct FunctionalBatchLayerRun {
  std::string name;
  std::vector<nn::Tensor> outputs;      ///< per-request requantized outputs
  std::vector<nn::WideTensor> wides;    ///< per-request exact accumulators
  std::vector<int> requant_shifts;      ///< per-request (same as solo runs)
  std::uint64_t cycles = 0;             ///< grid cycles for the whole batch
  int out_bits = kBasePrecision;
  double mean_streamed_precision = 0.0;  ///< mean Pa over the batch's chunks
  double mean_plane_products = 0.0;      ///< as in FunctionalLayerRun
  std::string backend;                   ///< kernel that ran this layer
  LayerPhases phases;                    ///< wall-clock split (timing only)
};

struct FunctionalBatchNetworkRun {
  std::vector<FunctionalBatchLayerRun> layers;
  std::vector<nn::Tensor> outputs;  ///< per-request network outputs
  std::uint64_t total_cycles = 0;
};

/// A request's requantized layer output and the shift that produced it.
struct Requantized {
  nn::Tensor output;
  int shift = 0;
};

/// The engine's epilogue for one request, in one pass over the exact
/// accumulators. `peak` is max |v| over `acc`, as the gemm kernel reports
/// it from its store (the scalar oracle's route scans for it): it picks
/// the shift exactly as nn::choose_requant_shift does, then each value
/// shifts, ReLUs (when `relu`) and saturates to `out_bits` as
/// nn::requantize does, narrowing straight into the output. A `peak` below
/// the true max |v| would wrap values instead of saturating them.
[[nodiscard]] Requantized requantize_accumulators(const nn::WideTensor& acc,
                                                  Wide peak, int out_bits,
                                                  bool relu);

/// The engine's pooling: nn::pool_forward's results (ceil-mode edge
/// windows, the average over real elements only, an empty window's max of
/// INT16_MIN and average of 0) without a bounds test per element: each
/// output row reduces its window's clipped input rows column by column,
/// then each output its clipped column range.
[[nodiscard]] nn::Tensor pool_activations(const nn::Tensor& input,
                                          const nn::Layer& layer);

/// True when `input` can feed `layer`: a conv input must have the layer's
/// (c,h,w) shape; an FC layer flattens its input, so only the element
/// count must match. Every engine layer call and serving admission apply it.
[[nodiscard]] bool accepts_input(const nn::Layer& layer, const nn::Tensor& input);

/// Loom's bit-serial SIP grid (rows x cols x lanes).
class FunctionalLoomEngine {
 public:
  explicit FunctionalLoomEngine(FunctionalOptions opts = {});

  /// Execute one convolutional layer. `weights` is flat [Co][Ci/g][Kh][Kw].
  [[nodiscard]] FunctionalLayerRun run_conv(const nn::Layer& layer,
                                            const nn::Tensor& input,
                                            const nn::Tensor& weights,
                                            int out_bits);

  /// Execute one fully-connected layer. `weights` is flat [Co][Ci].
  /// Cycles follow the same cascade-aware FC model as the analytic
  /// LoomSimulator (plan_fc_cascade + column stagger), minus the analytic
  /// model's kPipelineFill constant.
  [[nodiscard]] FunctionalLayerRun run_fc(const nn::Layer& layer,
                                          const nn::Tensor& input,
                                          const nn::Tensor& weights,
                                          int out_bits);

  /// Execute a whole profiled network: conv/fc layers on the grid, pooling
  /// through the max/average units, requantizing every output to the
  /// consumer layer's profile precision. `weights[i]` pairs with the i-th
  /// *weighted* layer; conv layers on the gemm kernel read the set's
  /// prepared planes, so no call prepares any, and the scalar oracle reads
  /// its flat tensors. A set that does not fit `net`
  /// (WeightSet::error_for) is a ConfigError.
  [[nodiscard]] FunctionalNetworkRun run_network(const nn::Network& net,
                                                 const nn::Tensor& input,
                                                 const WeightSet& weights);

  // ---- Batched (multi-request) execution ----------------------------------
  // N same-shape inputs run as one coalesced batch: conv im2col window
  // ranges of different requests concatenate into the same 64-window slabs
  // of the word-parallel kernel, FC batches apply each weight row to every
  // request, and every request's outputs demux back out. Requantization
  // (shift choice included) is per request, so outputs are byte-identical
  // to N solo runs — pinned by tests/test_batch_properties.cpp and the
  // serving stress tests, not assumed. On the scalar oracle a batch is
  // executed as N solo runs (summed cycles), which is the batching
  // semantics oracle. The data-independent FC schedule costs N x solo
  // cycles: the lane packing is a software throughput win, not a modelled
  // one.
  //
  // Every layer call rejects, with ConfigError, weights whose size is not
  // the layer's weight_count() and inputs accepts_input() refuses;
  // run_network* also rejects weights that do not fit the network. The flat
  // conv calls prepare the layer's weights per call on the gemm kernel
  // (prepare_conv, counted as pack time).

  [[nodiscard]] FunctionalBatchLayerRun run_conv_batch(
      const nn::Layer& layer, std::span<const nn::Tensor> inputs,
      const nn::Tensor& weights, int out_bits);

  [[nodiscard]] FunctionalBatchLayerRun run_fc_batch(
      const nn::Layer& layer, std::span<const nn::Tensor> inputs,
      const nn::Tensor& weights, int out_bits);

  [[nodiscard]] FunctionalBatchNetworkRun run_network_batch(
      const nn::Network& net, std::span<const nn::Tensor> inputs,
      const WeightSet& weights);

  [[nodiscard]] const arch::Dispatcher& dispatcher() const noexcept {
    return dispatcher_;
  }
  [[nodiscard]] const FunctionalOptions& options() const noexcept { return opts_; }
  /// The resolved kernel selection: "scalar" (requested,
  /// LOOM_FUNCTIONAL_SCALAR or an unpackable grid), "gemm", or "auto"
  /// (gemm, recorded per layer in the BackendAutotuner).
  [[nodiscard]] const std::string& backend_name() const noexcept {
    return resolved_;
  }

 private:
  /// The shared body of run_conv_batch and run_fc_batch; `prepared` (null
  /// for a flat call) is the conv layer's prepared weights.
  FunctionalBatchLayerRun run_layer_batch(const nn::Layer& layer,
                                          std::span<const nn::Tensor> inputs,
                                          const nn::Tensor& weights,
                                          const PreparedConv* prepared,
                                          int out_bits);
  /// Per-image cycles of an FC layer's data-independent schedule.
  [[nodiscard]] std::uint64_t fc_cycles(const nn::Layer& layer) const;
  /// Run one conv/fc batch on the selected kernel, built on first use;
  /// under "auto" runs gemm and records its wall clock in the autotuner.
  /// A gemm conv reads `prepared` when it is given, else prepares
  /// `weights` on the spot and counts that as pack time. `used` reports
  /// the kernel that ran and `peaks[r]` max |v| over `wides[r]`. FC
  /// kernels report no stats.
  ConvStats dispatch(const nn::Layer& layer,
                     std::span<const nn::Tensor* const> inputs,
                     const nn::Tensor& weights, const PreparedConv* prepared,
                     std::span<nn::WideTensor* const> wides,
                     std::span<Wide> peaks, std::string& used);

  FunctionalOptions opts_;
  arch::Dispatcher dispatcher_;
  GridOptions grid_;
  std::string resolved_;  ///< "scalar", "gemm" or "auto"
  std::optional<GemmEngine> gemm_;
  std::optional<SipGridOracle> sip_;
};

}  // namespace loom::sim
