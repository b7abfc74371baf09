// Dense-GEMM functional engine: the speed-of-light exact kernel. The
// functional contract splits into two independent parts — exact integer
// accumulators and the dispatcher's analytic streaming statistics — and
// this engine computes each the cheapest way:
//
//   * accumulators: an im2col pack of one window slab (int16, k-pair
//     interleaved), then a register-blocked int16 multiply-add GEMM
//     (vpmaddwd) with int32 partial sums over K-blocks, widened to int64
//     between blocks. The K-block length comes from a proven bound on the
//     operand magnitudes (kblock_steps in gemm_engine.cpp), so no int32
//     lane can wrap; operands too wide for a useful block (unsigned Pa 16,
//     the signed 16x16 DPNN spec, FC at high Pw) split the activation into
//     a low byte and a high part, summed exactly as lo + 256 * hi.
//   * statistics: the same pack ORs each (input chunk, column group) of raw
//     activations, and conv_stream_stats folds those ORs into ConvStats —
//     the one statistics pass, shared with the bit-sliced engine.
//
// Operand semantics match the bit-serial grid exactly: unsigned conv
// activations stream `raw & (2^Pa - 1)`, signed ones (FC, DPNN) the full
// two's-complement 16 bits; weights are the low Pw bits read as a Pw-bit
// two's-complement number. The OR detector sees the raw 16-bit value.
//
// FC layers (and request-batched FC) run as a GEMV/GEMM that streams the
// weight tensor in place, masking Pw on the fly — no repacked copy of a
// large weight matrix is ever made. Conv weights (small) are masked into a
// zero-padded copy once per call.
//
// SIMD tier: common::simd_level() (AVX-512, AVX2, scalar), so
// LOOM_FORCE_SCALAR_SIMD / LOOM_SIMD_LEVEL reach every dispatch. All tiers
// are exact integer arithmetic and byte-identical.
#pragma once

#include <cstdint>
#include <span>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "sim/bitslice_engine.hpp"

namespace loom::sim {

/// Fold the raw activation ORs of one conv slab into the dispatcher's
/// streaming accounting. The slab holds `slab_cols` consecutive columns of
/// the (batch-concatenated) window axis, starting on a column-group
/// boundary; `group_or[ic * n_groups + j]` is the OR of the raw 16-bit
/// activations of input chunk `ic` (grid.lanes inner positions) over column
/// group `j` (grid.cols windows), padding excluded. Every chunk of every
/// filter block streams the group's precision — the profile, or with
/// dynamic detection the OR's leading one, clamped to the profile.
void conv_stream_stats(const nn::Layer& layer,
                       const BitsliceEngine::SliceSpec& spec,
                       const BitsliceEngine::Options& grid,
                       std::int64_t slab_cols,
                       std::span<const std::uint32_t> group_or,
                       BitsliceEngine::ConvStats& stats);

class GemmEngine {
 public:
  using Options = BitsliceEngine::Options;
  using SliceSpec = BitsliceEngine::SliceSpec;
  using ConvStats = BitsliceEngine::ConvStats;

  /// Same grid envelope as the bit-sliced engine: a slab of at most 64
  /// windows holds whole column groups, and a chunk at most 32 lanes.
  [[nodiscard]] static bool supports(const Options& opts) noexcept {
    return BitsliceEngine::supports(opts);
  }

  explicit GemmEngine(Options opts);

  /// Single-request convolution (a batch of one).
  ConvStats run_conv(const nn::Layer& layer, const nn::Tensor& input,
                     const nn::Tensor& weights, const SliceSpec& spec,
                     nn::WideTensor& wide);

  /// Batched convolution with BitsliceEngine::run_conv_batch's semantics:
  /// the window axes of all requests concatenate into one global axis, so
  /// slabs and column groups may span request boundaries; accumulators
  /// demux into `wides[r]` (preallocated), stats are identical.
  ConvStats run_conv_batch(const nn::Layer& layer,
                           std::span<const nn::Tensor* const> inputs,
                           const nn::Tensor& weights, const SliceSpec& spec,
                           std::span<nn::WideTensor* const> wides);

  /// Fully-connected layer: signed 16-bit activations, `weight_precision`
  /// two's-complement weights read in place from `weights`.
  void run_fc(const nn::Layer& layer, const nn::Tensor& input,
              const nn::Tensor& weights, int weight_precision,
              nn::WideTensor& wide);

  /// Batched FC: every weight row loaded once is applied to all requests.
  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides);

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  /// One SIMD tier's kernel table (opaque; defined in gemm_engine.cpp).
  struct Kernels;

 private:
  Options opts_;
  std::int64_t slab_windows_;  ///< windows per slab (multiple of cols, <= 64)
  const Kernels* kernels_;     ///< SIMD tier, probed once at construction
};

}  // namespace loom::sim
