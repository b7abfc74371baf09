// Synthetic, deterministic workload generation.
//
// We do not have the paper's trained ImageNet models, so tensor *values* are
// synthesized from calibrated distributions (see quant/calibration.hpp) that
// reproduce the published precision behaviour: the per-layer needed
// precision equals the Table 1 profile, and the per-group effective
// precisions (what the dynamic-precision hardware detects at runtime) match
// the reductions the paper reports. All values derive from a counter-based
// RNG keyed by (seed, stream, index), so weight tensors with 10^8 elements
// are streamed rather than stored.
#pragma once

#include <cstdint>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace loom::nn {

/// Distribution of synthetic fixed-point values.
///
/// magnitude = floor(max_magnitude * u^alpha) for u ~ U[0,1); larger alpha
/// concentrates values toward zero, lowering the *group* effective precision
/// while keeping the per-tensor maximum at the profile precision (with high
/// probability for realistic tensor sizes).
struct SyntheticSpec {
  int precision = 8;          ///< needed bits: unsigned for activations, two's-complement (incl. sign) for weights
  double alpha = 1.0;         ///< concentration exponent (>= 1)
  bool is_signed = false;     ///< weights are signed, post-ReLU activations are not
  double zero_fraction = 0.0; ///< extra probability mass at exactly zero (ReLU sparsity)
};

/// Streams deterministic values: element `index` is a pure function of
/// (seed, stream, index, spec).
class SyntheticSource {
 public:
  SyntheticSource(std::uint64_t seed, std::uint64_t stream, SyntheticSpec spec);

  [[nodiscard]] Value at(std::uint64_t index) const noexcept;
  [[nodiscard]] const SyntheticSpec& spec() const noexcept { return spec_; }

  /// The random state behind one element, before alpha shapes it.
  struct Draw {
    double u = -1.0;        ///< uniform in [0, 1), or -1.0 when the zero gate fires
    bool negative = false;  ///< sign of a live value (always false when unsigned)
  };

  /// Draw behind element `index`. It depends only on (seed, stream, index,
  /// zero_fraction, is_signed) — not on alpha — and `at(index)` equals
  /// `(negative ? -1 : 1) * magnitude_for_draw(u)`.
  [[nodiscard]] Draw draw(std::uint64_t index) const noexcept;

  /// Magnitude the source emits for uniform draw `u` under the current
  /// spec (monotone non-decreasing in `u`; -1.0 maps to 0). Calibration
  /// exploits this monotonicity: a group's precision for *any* alpha follows
  /// from its maximum draws (quant::MaxDrawSample).
  [[nodiscard]] Value magnitude_for_draw(double u) const noexcept;

  /// Largest magnitude the source can emit.
  [[nodiscard]] int max_magnitude() const noexcept { return max_magnitude_; }

 private:
  CounterRng rng_;
  SyntheticSpec spec_;
  int max_magnitude_;
};

/// Materialize an activation volume (CHW) from a synthetic source.
[[nodiscard]] Tensor make_activation_tensor(const Shape3& shape, const SyntheticSpec& spec,
                                            std::uint64_t seed, std::uint64_t stream);

/// Materialize a weight tensor with `count` elements (flat layout; the
/// caller interprets [Co][Ci/g][Kh][Kw] or [Co][Ci] ordering).
[[nodiscard]] Tensor make_weight_tensor(std::int64_t count, const SyntheticSpec& spec,
                                        std::uint64_t seed, std::uint64_t stream);

/// Stable stream ids so every consumer of a layer's data sees the same
/// virtual tensor.
[[nodiscard]] std::uint64_t activation_stream(std::uint64_t layer_index) noexcept;
[[nodiscard]] std::uint64_t weight_stream(std::uint64_t layer_index) noexcept;

}  // namespace loom::nn
