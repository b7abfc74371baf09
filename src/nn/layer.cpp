#include "nn/layer.hpp"

#include "common/error.hpp"

namespace loom::nn {

std::int64_t conv_out_extent(std::int64_t in, int kernel, int stride, int pad,
                             bool ceil_mode) {
  LOOM_EXPECTS(in > 0 && kernel > 0 && stride > 0 && pad >= 0);
  const std::int64_t span = in + 2 * pad - kernel;
  LOOM_EXPECTS(span >= 0);
  if (ceil_mode) return (span + stride - 1) / stride + 1;
  return span / stride + 1;
}

bool geometry_consistent(const Layer& l) {
  const auto positive = [](const Shape3& s) {
    return s.c > 0 && s.h > 0 && s.w > 0;
  };
  if (!positive(l.in) || !positive(l.out)) return false;
  if (l.kind == LayerKind::kFullyConnected) return l.out.h == 1 && l.out.w == 1;
  if (l.kernel_h < 1 || l.kernel_w < 1 || l.stride < 1 || l.pad < 0 ||
      l.kernel_h > l.in.h + 2 * l.pad || l.kernel_w > l.in.w + 2 * l.pad) {
    return false;
  }
  const bool pool = l.kind == LayerKind::kPool;
  const auto extent_ok = [&](std::int64_t in, int kernel, std::int64_t out) {
    return out == conv_out_extent(in, kernel, l.stride, l.pad, false) ||
           (pool && out == conv_out_extent(in, kernel, l.stride, l.pad, true));
  };
  if (!extent_ok(l.in.h, l.kernel_h, l.out.h) ||
      !extent_ok(l.in.w, l.kernel_w, l.out.w)) {
    return false;
  }
  if (pool) return l.out.c == l.in.c;
  return l.groups >= 1 && l.in.c % l.groups == 0 && l.out.c % l.groups == 0;
}

std::int64_t Layer::weight_count() const noexcept {
  if (kind == LayerKind::kPool) return 0;
  if (kind == LayerKind::kFullyConnected) return out.c * in.elements();
  return out.c * group_in_channels() * kernel_h * kernel_w;
}

std::int64_t Layer::macs() const noexcept {
  if (kind == LayerKind::kPool) return 0;
  if (kind == LayerKind::kFullyConnected) return out.c * in.elements();
  return out.c * out.h * out.w * group_in_channels() * kernel_h * kernel_w;
}

std::int64_t Layer::windows() const noexcept {
  if (kind == LayerKind::kConv) return out.h * out.w;
  return 1;
}

std::int64_t Layer::inner_length() const noexcept {
  if (kind == LayerKind::kPool) return 0;
  if (kind == LayerKind::kFullyConnected) return in.elements();
  return group_in_channels() * kernel_h * kernel_w;
}

Layer make_conv(std::string name, Shape3 in, int out_channels, int kernel,
                int stride, int pad, int groups) {
  LOOM_EXPECTS(out_channels > 0 && kernel > 0 && stride > 0 && groups > 0);
  LOOM_EXPECTS(in.c % groups == 0 && out_channels % groups == 0);
  Layer l;
  l.kind = LayerKind::kConv;
  l.name = std::move(name);
  l.in = in;
  l.kernel_h = l.kernel_w = kernel;
  l.stride = stride;
  l.pad = pad;
  l.groups = groups;
  l.out = Shape3{out_channels,
                 conv_out_extent(in.h, kernel, stride, pad, /*ceil_mode=*/false),
                 conv_out_extent(in.w, kernel, stride, pad, /*ceil_mode=*/false)};
  return l;
}

Layer make_fc(std::string name, Shape3 in, int out_features) {
  LOOM_EXPECTS(out_features > 0 && in.elements() > 0);
  Layer l;
  l.kind = LayerKind::kFullyConnected;
  l.name = std::move(name);
  l.in = in;
  l.out = Shape3{out_features, 1, 1};
  return l;
}

Layer make_pool(std::string name, Shape3 in, PoolKind pool, int kernel,
                int stride, int pad, bool ceil_mode) {
  LOOM_EXPECTS(kernel > 0 && stride > 0);
  Layer l;
  l.kind = LayerKind::kPool;
  l.name = std::move(name);
  l.in = in;
  l.pool = pool;
  l.kernel_h = l.kernel_w = kernel;
  l.stride = stride;
  l.pad = pad;
  l.out = Shape3{in.c, conv_out_extent(in.h, kernel, stride, pad, ceil_mode),
                 conv_out_extent(in.w, kernel, stride, pad, ceil_mode)};
  return l;
}

}  // namespace loom::nn
