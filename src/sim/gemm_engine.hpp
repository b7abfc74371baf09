// Dense-GEMM functional engine: the speed-of-light exact kernel. The
// functional contract splits into two independent parts — exact integer
// accumulators and the dispatcher's analytic streaming statistics — and
// this engine computes each the cheapest way:
//
//   * accumulators: an im2col pack of one window slab, then a
//     register-blocked multiply-add GEMM with int32 partial sums over
//     K-blocks, widened to int64 between blocks. Two operand layouts share
//     the slab, stripe, statistics and demux code; only the pack layout and
//     the block kernel differ by SIMD tier:
//       - int16 tiers (avx512, avx2, scalar): activations int16 and
//         k-pair interleaved [pair][64][2], weights the Pw-bit value as
//         int16, vpmaddwd over 6-row register blocks. Operands too wide for
//         a useful block (unsigned Pa 16, FC at high Pw) split the
//         activation into a low byte and a high part, summed exactly as
//         lo + 256 * hi.
//       - amx tier: byte planes on TDPBSUD tiles. Activations are the
//         unsigned B tile: the low byte of raw & (2^Pa - 1) and, above Pa
//         8, its high byte, k-quad interleaved [quad][64][4]. Weights are
//         the signed A tile: the Pw-bit value w itself up to Pw 8, else
//         max(1, ceil((Pw - 1) / 7)) planes — 7-bit digits (w >> 7j) & 127
//         and a signed top plane — stored [plane][group][cog_pad16][kpad64]
//         by prepare_conv. Plane product (i, j)
//         accumulates in int32 C tiles and flushes into the int64 sums
//         shifted by 8i + 7j. A slab whose masked ORs fit in 8 bits runs
//         one activation plane whatever its static Pa (dynamic planes).
//         Convs shallower than three 64-deep K-steps stay on the int16
//         kernel, where a tile block's fixed cost is not repaid.
//     The K-block length comes from a proven bound (kblock_steps in
//     gemm_engine.cpp): a step adds `per_step` products of magnitude at
//     most amax * wmax, so floor(INT32_MAX / (amax * wmax)) / per_step
//     steps cannot wrap any partial sum, in any order of addition. For
//     byte planes amax * wmax = 255 * 128 and per_step is 64, so a block
//     holds 1,028 K-steps (65,792 products).
//   * statistics: the same pack ORs each (input chunk, column group) of raw
//     activations, and conv_stream_stats folds those ORs into ConvStats —
//     the one statistics pass, byte-identical to what the dispatcher-driven
//     scalar grid reports.
//
// The pack has no bounds test. Once per call each request's input is
// copied into a zero-bordered C x (H + 2 pad) x (W + 2 pad) buffer (at pad
// 0 the input itself serves), so with the layer geometry validated
// (nn::geometry_consistent) every window lies inside its buffer. Each slab
// column gets one base pointer into its own request's buffer — slabs may
// span requests — and element k = (ci, ky, kx) sits at one offset from
// every base, walked with incremental counters, one k-group (the pair or
// quad the tile interleaves) at a time: a column's group of raw values
// loads into the 16-bit lanes of one word (one load when the positions are
// consecutive), ORs into the column group's statistic, masks to the
// profile's 2^Pa - 1 lane by lane and stores one 32-bit unit per part
// (the whole values, or low bytes and high bytes). A stripe packs one part
// until a slab needs the high byte, then repacks that slab and every later
// one with both parts in one walk. Border zeros leave the ORs unchanged.
// The tile is zeroed once per stripe; per slab the pack clears only the
// tail columns it does not write.
//
// Operand semantics match the bit-serial grid exactly: unsigned conv
// activations stream `raw & (2^Pa - 1)`, signed FC ones the full
// two's-complement 16 bits; weights are the low Pw bits read as a Pw-bit
// two's-complement number. The OR detector sees the raw 16-bit value.
//
// FC layers (and request-batched FC) run as a GEMV/GEMM that streams the
// weight tensor in place, masking Pw on the fly — no repacked copy of a
// large weight matrix is ever made. Conv weights enter as a PreparedConv:
// the padded planes of the layout conv_layout picks, built by the pure
// prepare_conv. A model prepares them once (sim::WeightSet, built against
// its network) and every call and thread reads the same planes; the
// engine's flat run_conv calls prepare through the same function per call
// and count that as pack time.
//
// SIMD tier: common::simd_level() (AMX, AVX-512, AVX2, scalar), so
// LOOM_SIMD_LEVEL reaches every dispatch. All tiers
// are exact integer arithmetic and byte-identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace loom::sim {

/// The SIP grid a kernel instance is built for (FunctionalOptions'
/// rows/cols/lanes/jobs).
struct GridOptions {
  int rows = 16;   ///< SIP rows (filter-block height; cycle accounting)
  int cols = 16;   ///< SIP columns = dynamic-detection group width
  int lanes = 16;  ///< products per SIP per cycle (max 32)
  int jobs = 1;    ///< stripe fan-out over the shared pool; 0 = all
};

/// True when a word-parallel kernel can run `grid`: a slab of at most 64
/// windows holds whole column groups, and a chunk at most 32 lanes.
[[nodiscard]] inline bool supports(const GridOptions& grid) noexcept {
  return grid.cols >= 1 && grid.cols <= 64 && grid.lanes >= 1 &&
         grid.lanes <= 32 && grid.rows >= 1;
}

/// Streaming semantics of one conv layer run. Mirrors what the dispatcher +
/// arch::Sip grid would do: unsigned activations serialized at
/// `act_precision` planes (optionally trimmed per column-group by dynamic
/// detection), weights at `weight_precision` two's-complement planes with a
/// negated MSB pass.
struct SliceSpec {
  int act_precision = kBasePrecision;
  int weight_precision = kBasePrecision;
  bool dynamic = false;
};

/// Cycle and data-movement accounting identical to what the scalar
/// dispatcher-driven grid reports for the same layer.
struct ConvStats {
  std::uint64_t cycles = 0;
  double streamed_pa = 0.0;  ///< sum of streamed Pa over chunks
  std::int64_t chunks = 0;
  std::uint64_t act_bits_streamed = 0;
  std::uint64_t weight_bits_streamed = 0;
  std::uint64_t detect_invocations = 0;
  std::uint64_t detect_values = 0;
  /// Wall-clock nanoseconds of the im2col pack plus this statistics pass,
  /// summed over stripes (0 from kernels without a pack). Timing only: no
  /// golden digest or equality check reads it.
  std::uint64_t pack_ns = 0;
  /// Plane products per K-block summed over slabs, and the slab count
  /// (both 0 from kernels without planes). Like pack_ns, no golden digest
  /// or equality check reads them.
  std::uint64_t plane_products = 0;
  std::uint64_t slabs = 0;

  /// Integer-valued fields (streamed_pa included), so sums are exact in
  /// any order.
  ConvStats& operator+=(const ConvStats& o) noexcept {
    cycles += o.cycles;
    pack_ns += o.pack_ns;
    plane_products += o.plane_products;
    slabs += o.slabs;
    streamed_pa += o.streamed_pa;
    chunks += o.chunks;
    act_bits_streamed += o.act_bits_streamed;
    weight_bits_streamed += o.weight_bits_streamed;
    detect_invocations += o.detect_invocations;
    detect_values += o.detect_values;
    return *this;
  }
};

/// How a conv layer's operands enter the GEMM (see the header comment).
enum class ConvLayout : std::uint8_t {
  kInt16Pairs,  ///< int16 weights against k-pair interleaved activations
  kBytePlanes,  ///< int8 weight planes against activation bytes (AMX)
};

/// The one layout decision, which both prepare_conv and run_conv_batch
/// call: byte planes at the amx tier for convs of at least three 64-deep
/// K-steps (inner > 128), else int16 pairs. A function of the layer and the
/// process's SIMD tier (common::simd_level, fixed at first use).
[[nodiscard]] ConvLayout conv_layout(const nn::Layer& layer);

/// One conv layer's weights in the exact operand layout its GEMM reads:
/// the Pw-bit values (or, as byte planes, their 7-bit digits and signed top
/// plane), each group's filter rows zero-padded to whole register blocks
/// and each row to whole kernel steps, [plane][group][cog_pad][kpad].
/// Derived data: immutable once built and never serialized.
struct PreparedConv {
  ConvLayout layout = ConvLayout::kInt16Pairs;
  int weight_precision = 0;
  /// The layer shape the planes were built for (see fits).
  std::int64_t inner = 0;
  std::int64_t out_channels = 0;
  int groups = 0;
  std::vector<std::int16_t> pairs;  ///< kInt16Pairs planes, else empty
  std::vector<std::int8_t> bytes;   ///< kBytePlanes planes, else empty

  /// True when these are weights of `layer`'s shape at `weight_precision`
  /// in the layout conv_layout(layer) picks, so run_conv_batch may read
  /// them for it.
  [[nodiscard]] bool fits(const nn::Layer& layer, int weight_precision) const;

  friend bool operator==(const PreparedConv&, const PreparedConv&) = default;
};

/// `weights` (flat [Co][Ci/g][Kh][Kw]) of conv `layer` at
/// `weight_precision`, prepared in the layout conv_layout(layer) picks. A
/// pure function of its arguments and the SIMD tier.
[[nodiscard]] PreparedConv prepare_conv(const nn::Layer& layer,
                                        const nn::Tensor& weights,
                                        int weight_precision);

/// Fold the raw activation ORs of one conv slab into the dispatcher's
/// streaming accounting. The slab holds `slab_cols` consecutive columns of
/// the (batch-concatenated) window axis, starting on a column-group
/// boundary; `group_or[ic * n_groups + j]` is the OR of the raw 16-bit
/// activations of input chunk `ic` (grid.lanes inner positions) over column
/// group `j` (grid.cols windows), padding excluded. Every chunk of every
/// filter block streams the group's precision — the profile, or with
/// dynamic detection the OR's leading one, clamped to the profile.
void conv_stream_stats(const nn::Layer& layer, const SliceSpec& spec,
                       const GridOptions& grid, std::int64_t slab_cols,
                       std::span<const std::uint32_t> group_or,
                       ConvStats& stats);

class GemmEngine {
 public:
  /// Requires supports(grid).
  explicit GemmEngine(GridOptions grid);

  /// Batched convolution: the window axes of all requests concatenate into
  /// one global axis, so slabs and column groups may span request
  /// boundaries (dynamic detection then sees an upper bound of every value
  /// in the group, so the exact accumulators are unchanged); accumulators
  /// demux into `wides[r]` (preallocated, one per input). A batch of one is
  /// stats-identical to the scalar grid. Requires
  /// weights.fits(layer, spec.weight_precision).
  ConvStats run_conv_batch(const nn::Layer& layer,
                           std::span<const nn::Tensor* const> inputs,
                           const PreparedConv& weights, const SliceSpec& spec,
                           std::span<nn::WideTensor* const> wides);

  /// Batched fully-connected layer: signed 16-bit activations,
  /// `weight_precision` two's-complement weights read in place from
  /// `weights`; every weight row loaded once is applied to all requests.
  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides);

  [[nodiscard]] const GridOptions& options() const noexcept { return opts_; }

  /// One SIMD tier's kernel table (opaque; defined in gemm_engine.cpp).
  struct Kernels;

 private:
  GridOptions opts_;
  std::int64_t slab_windows_;  ///< windows per slab (multiple of cols, <= 64)
  const Kernels* kernels_;     ///< SIMD tier, probed once at construction
};

}  // namespace loom::sim
