// Layer descriptors with shape inference and work accounting. These carry
// everything the simulators need: geometry, per-layer precision profile,
// and the precision-group id used by networks whose published profiles
// group several convolutions (GoogLeNet's inception modules).
#pragma once

#include <cstdint>
#include <string>

namespace loom::nn {

/// Channel-height-width extent of an activation volume.
struct Shape3 {
  std::int64_t c = 0;
  std::int64_t h = 0;
  std::int64_t w = 0;

  [[nodiscard]] std::int64_t elements() const noexcept { return c * h * w; }
  friend bool operator==(const Shape3&, const Shape3&) = default;
};

enum class LayerKind { kConv, kFullyConnected, kPool };
enum class PoolKind { kMax, kAvg };

/// One network layer. Conv and FC layers carry weights and are simulated on
/// the accelerators; pooling layers only reshape activations (both DPNN and
/// Loom have dedicated max units, so pooling adds no modeled compute time,
/// matching the paper's treatment).
struct Layer {
  LayerKind kind = LayerKind::kConv;
  std::string name;

  Shape3 in;   // input activation volume
  Shape3 out;  // output activation volume (from shape inference)

  // Convolution / pooling geometry.
  int kernel_h = 1;
  int kernel_w = 1;
  int stride = 1;
  int pad = 0;
  int groups = 1;  // grouped convolution (AlexNet conv2/4/5)
  PoolKind pool = PoolKind::kMax;

  // Precision profile, filled in from quant::PrecisionProfile.
  int act_precision = 16;     // Pa: profile-derived input activation bits
  int weight_precision = 16;  // Pw: profile-derived weight bits

  /// Index into the published per-network activation precision list. Layers
  /// sharing an index share a profile entry (GoogLeNet inception modules).
  int precision_group = -1;

  // ---- Derived quantities -------------------------------------------------

  /// Channels per convolution group (= in.c for groups == 1).
  [[nodiscard]] std::int64_t group_in_channels() const noexcept {
    return in.c / groups;
  }
  [[nodiscard]] std::int64_t group_out_channels() const noexcept {
    return out.c / groups;
  }

  /// Number of weights (conv: Co * Ci/g * Kh * Kw; FC: Co * Ci).
  [[nodiscard]] std::int64_t weight_count() const noexcept;

  /// Multiply-accumulate operations for one inference pass.
  [[nodiscard]] std::int64_t macs() const noexcept;

  /// Number of sliding windows (conv: out.h * out.w; FC: 1).
  [[nodiscard]] std::int64_t windows() const noexcept;

  /// Inner-product length per output (conv: Kh*Kw*Ci/g; FC: Ci).
  [[nodiscard]] std::int64_t inner_length() const noexcept;

  [[nodiscard]] bool has_weights() const noexcept { return kind != LayerKind::kPool; }
};

/// Factory helpers performing shape inference from an input volume.
[[nodiscard]] Layer make_conv(std::string name, Shape3 in, int out_channels,
                              int kernel, int stride, int pad, int groups = 1);
[[nodiscard]] Layer make_fc(std::string name, Shape3 in, int out_features);
/// `ceil_mode` selects Caffe-style ceiling output arithmetic (the framework
/// the paper's networks were profiled in).
[[nodiscard]] Layer make_pool(std::string name, Shape3 in, PoolKind pool,
                              int kernel, int stride, int pad = 0,
                              bool ceil_mode = true);

/// Conv/pool output extent: floor or ceil mode.
[[nodiscard]] std::int64_t conv_out_extent(std::int64_t in, int kernel, int stride,
                                           int pad, bool ceil_mode);

/// True when `l`'s recorded shapes are the ones its geometry implies, so no
/// window can reach past the zero-padded input: every extent positive, the
/// kernel within in + 2 * pad, a conv output at the floor extent, a pool
/// output at the floor or the ceil extent with the input's channels, groups
/// dividing both channel counts, and an FC output of out.c x 1 x 1.
[[nodiscard]] bool geometry_consistent(const Layer& l);

}  // namespace loom::nn
