// LUT functional engine: T-MAC-style table-lookup matmul (see SNIPPETS.md,
// MiCo-Lib qmatmul.c). Activations are cut into groups of 8; each group
// precomputes the 256-entry table of all partial sums
//
//     lut[m] = sum_{j in m} a[j]          (m = an 8-bit weight-slice mask)
//
// with the classic doubling fill (one add per entry), once per (window,
// group) and *outside* the output-feature loop — so for Co output features
// the build cost amortizes to 256/Co adds per group. A weight's Pw-bit
// two's-complement row decomposes into shifted 1-bit slices:
//
//     w = u - msb * 2^Pw,  u = raw & (2^Pw - 1)
//  => sum_j a_j w_j = sum_{b<Pw-1} lut[slice_b] << b  -  lut[slice_{Pw-1}] << (Pw-1)
//
// so the hot loop is Pw table lookups per (output, group) — zero multiplies,
// and the cost is *independent of the activation precision* (the bit-sliced
// engine's cost grows with every streamed activation plane). That makes the
// LUT kernel the fast path for high-Pa / low-Pw layers, which the backend
// autotuner discovers empirically.
//
// The OR-plane detected group precisions are reused two ways:
//   - dead groups (all-zero activations) are skipped entirely via a live
//     list (their table would be identically zero);
//   - tables are built in int16 when the group's partial sums provably fit
//     (detected magnitude <= 12 bits), halving the table bytes the hot
//     loop touches.
//
// Contract: byte-identical exact accumulators AND byte-identical ConvStats
// to BitsliceEngine / the scalar oracle — the stats pass replicates the
// dispatcher's per-(column-group, chunk) accounting with the same (group,
// slab) task striping, so even the floating-point summation order of
// streamed_pa matches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "common/cpuid.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "sim/bitslice_engine.hpp"

namespace loom::sim {

/// The engine's two hot loops as standalone kernels with an explicit SIMD
/// tier, runtime-dispatched (scalar / AVX2 / AVX-512) behind the shared
/// common/cpuid probe. Exposed so benches and tests can pit tiers against
/// each other directly; the engine itself calls them at common::simd_level().
/// Every tier computes bit-exact identical results — the vector paths are
/// pure integer reassociations of the scalar fill/walk, so the registry-wide
/// byte-identity contract holds under any forced tier.
namespace lut_kernels {

/// Padding contract for the vector paths: dword gathers may *read* (never
/// write) a few bytes past the logical end of a buffer. Table buffers need
/// kLutPadEntries extra entries beyond the last 256-entry table; packed
/// weight-slice buffers need kWeightPadBytes extra bytes.
inline constexpr std::size_t kLutPadEntries = 2;
inline constexpr std::size_t kWeightPadBytes = 4;

/// Doubling fill of one 256-entry partial-sum table from the group's 8
/// activation values: lut[m | 1<<j] = lut[m] + a[j]. The requested tier is
/// clamped to what the hardware supports.
void build_table_i16(common::SimdLevel level, const std::int32_t* a,
                     std::int16_t* lut) noexcept;
void build_table_i32(common::SimdLevel level, const std::int32_t* a,
                     std::int32_t* lut) noexcept;

/// Lookup+accumulate walk over `n` group tables for one output feature:
/// returns sum over t < n of the signed slice decomposition
///   sum_{b<pw-1} lut_t[wb_t[b]] << b  -  lut_t[wb_t[pw-1]] << (pw-1)
/// where lut_t = luts + t*256 and wb_t = wbytes + bidx[t] (bidx holds byte
/// offsets of each group's pw slice bytes — absolute, so callers can walk a
/// live-group subset of a larger packed row without copying).
std::int64_t accumulate_i16(common::SimdLevel level, const std::int16_t* luts,
                            const std::uint8_t* wbytes,
                            const std::int32_t* bidx, std::int64_t n,
                            int pw) noexcept;
std::int64_t accumulate_i32(common::SimdLevel level, const std::int32_t* luts,
                            const std::uint8_t* wbytes,
                            const std::int32_t* bidx, std::int64_t n,
                            int pw) noexcept;

}  // namespace lut_kernels

class LutEngine {
 public:
  struct Options {
    int rows = 16;   ///< SIP rows (cycle accounting only)
    int cols = 16;   ///< dynamic-detection group width (stats accounting)
    int lanes = 16;  ///< products per SIP per cycle (stats accounting)
    int jobs = 1;    ///< (group, slab) fan-out over the shared pool; 0 = all
    /// Conv table tiling: tables live for `group_tile` 8-activation groups
    /// at a time (tile working set = group_tile * 256 entries, sized for
    /// L1). 0 = build every group's table up front (the "outer" variant —
    /// one pass over the weights, larger working set).
    int group_tile = 64;
  };

  using SliceSpec = BitsliceEngine::SliceSpec;
  using ConvStats = BitsliceEngine::ConvStats;

  /// Same packing envelope as the bit-sliced engine (the stats contract
  /// needs cols <= 64 slabs and lanes <= 32 chunks).
  [[nodiscard]] static bool supports(const Options& opts) noexcept {
    return opts.cols >= 1 && opts.cols <= 64 && opts.lanes >= 1 &&
           opts.lanes <= 32 && opts.rows >= 1 && opts.group_tile >= 0;
  }

  explicit LutEngine(Options opts);

  /// Batched convolution, same window-concatenation semantics and stats as
  /// BitsliceEngine::run_conv_batch. Accumulators land in wides[r]
  /// (preallocated, one per input).
  ConvStats run_conv_batch(const nn::Layer& layer,
                           std::span<const nn::Tensor* const> inputs,
                           const nn::Tensor& weights, const SliceSpec& spec,
                           std::span<nn::WideTensor* const> wides);

  /// Fully-connected layer: signed 16-bit activations, `weight_precision`
  /// two's-complement weight planes. Tables build once per request over
  /// the whole input, then every output neuron is Pw lookups per group.
  void run_fc(const nn::Layer& layer, const nn::Tensor& input,
              const nn::Tensor& weights, int weight_precision,
              nn::WideTensor& wide);

  /// Batched FC: per-request runs (each already amortizes its tables over
  /// all output neurons; the bit-sliced engine's request-packed layout is
  /// the better batch kernel, and the autotuner keys on batch size).
  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides);

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

 private:
  struct Scratch {
    std::vector<std::int32_t> acts;      ///< gathered group values
    std::vector<std::int32_t> live;      ///< live 8-act group indices
    std::vector<std::int32_t> bidx;      ///< live groups' slice byte offsets
    std::vector<std::int32_t> lut32;     ///< tables, wide entries
    std::vector<std::int16_t> lut16;     ///< tables, narrow entries
    std::vector<std::int64_t> acc;       ///< per-output accumulators
    std::vector<std::uint8_t> wpack;     ///< packed weight slices [co][g8][b]
  };

  void conv_slab(const nn::Layer& layer,
                 std::span<const nn::Tensor* const> inputs,
                 const SliceSpec& spec, std::int64_t g, std::int64_t slab,
                 std::span<nn::WideTensor* const> wides,
                 std::span<const std::uint8_t> wpack, Scratch& scratch,
                 ConvStats& stats) const;

  Options opts_;
  std::int64_t slab_windows_;  ///< windows per slab (multiple of cols)
  common::SimdLevel simd_;     ///< effective dispatch tier, probed once
};

}  // namespace loom::sim
