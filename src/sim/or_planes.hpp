// OR-plane precision engine: single-pass dense precomputation for
// dynamic-precision detection (paper §3.2's per-bit OR trees over 16x16
// activation groups).
//
// The cycle models ask "what precision does the detector find for the
// `cols` windows x `lanes` inner positions processed concurrently?" many
// millions of times per layer. Instead of re-deriving im2col indices (with
// per-value div/mod and padding checks) for every query, ActOrPlanes
// materializes, in one padding-aware pass per conv layer, a dense
// (groups * ic_count) x windows matrix of uint16 OR masks — entry
// (g, ic, w) is the OR of the activation magnitudes window `w` reads at
// inner positions [ic*lanes, (ic+1)*lanes). Any group precision for any
// `cols` then reduces to OR-ing `cols` contiguous entries of one row and a
// leading-one detection, byte-identical to the scattered scan it replaces.
//
// calibration_sample() is the SyntheticSource-backed companion used before
// the input tensor exists: it reduces each sampled detection group to the
// maximum uniform draw behind its live activations (a quant::MaxDrawSample).
// The synthetic magnitude is monotone in the draw and the OR of a group
// shares its most significant bit with the group maximum, so one raw-RNG
// pass warm-starts every measurement of the calibration bisection — each
// iteration counts sorted draws against a few thresholds instead of a fresh
// 256-value source scan. Its reads follow the im2col windows, so they stay
// scalar draws.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "nn/layer.hpp"
#include "nn/synthetic.hpp"
#include "nn/tensor.hpp"
#include "quant/calibration.hpp"

namespace loom::sim {

/// Dense per-layer table of activation OR masks (see file comment). Rows
/// are (conv group, input chunk) pairs; columns are sliding windows.
class ActOrPlanes {
 public:
  /// Captures the conv geometry; `build` fills the table. Conv layers only.
  ActOrPlanes(const nn::Layer& layer, int lanes);

  /// One vectorized padding-aware pass over the input tensor. Interior
  /// spans run as straight-line strided loops; border windows are excluded
  /// by per-(kernel-position, output-row) range arithmetic, so the inner
  /// loop carries no bounds checks. Parallelized across row stripes on the
  /// shared plane pool — rows are disjoint, so the result is byte-identical
  /// regardless of scheduling.
  void build(const nn::Tensor& input);

  [[nodiscard]] std::int64_t windows() const noexcept { return windows_; }
  [[nodiscard]] std::int64_t ic_count() const noexcept { return ic_count_; }

  /// OR mask of the detection group at (conv group g, window block wb,
  /// input chunk ic) with `cols` concurrent windows (clipped at the window
  /// count, matching the hardware's partial tail block).
  [[nodiscard]] std::uint16_t group_or(std::int64_t g, std::int64_t ic,
                                       std::int64_t wb,
                                       int cols) const noexcept {
    const std::uint16_t* r = row_ptr(g, ic);
    const std::int64_t w0 = wb * cols;
    const std::int64_t w1 = std::min(windows_, w0 + cols);
    std::uint16_t ored = 0;
    for (std::int64_t w = w0; w < w1; ++w) ored |= r[w];
    return ored;
  }

 private:
  [[nodiscard]] const std::uint16_t* row_ptr(std::int64_t g,
                                             std::int64_t ic) const noexcept {
    return masks_.data() +
           static_cast<std::size_t>((g * ic_count_ + ic) * windows_);
  }
  void build_row(const Value* input, std::int64_t g, std::int64_t ic,
                 std::uint16_t* row, bool zero_row) const;

  // Geometry, copied out of the layer so the plane is self-contained.
  std::int64_t in_h_, in_w_;
  std::int64_t out_h_, out_w_;
  std::int64_t kernel_h_, kernel_w_;
  std::int64_t stride_, pad_;
  std::int64_t groups_, group_in_channels_;
  std::int64_t inner_, windows_, ic_count_;
  int lanes_;
  std::vector<std::uint16_t> masks_;
};

/// Source-backed reduction used by the group-calibration bisection: one
/// max-draw group per sampled detection group of `layer` (`cols` windows x
/// `lanes` inner positions; at most about `max_groups`, strided evenly).
/// `draws` must be unsigned and share seed/stream/zero_fraction with the
/// sources later measured against the sample (alpha may differ).
[[nodiscard]] quant::MaxDrawSample calibration_sample(
    const nn::Layer& layer, int lanes, int cols, int max_groups,
    const nn::SyntheticSource& draws);

}  // namespace loom::sim
