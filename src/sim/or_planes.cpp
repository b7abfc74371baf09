#include "sim/or_planes.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/im2col.hpp"

namespace loom::sim {

ActOrPlanes::ActOrPlanes(const nn::Layer& layer, int lanes)
    : in_h_(layer.in.h),
      in_w_(layer.in.w),
      out_h_(layer.out.h),
      out_w_(layer.out.w),
      kernel_h_(layer.kernel_h),
      kernel_w_(layer.kernel_w),
      stride_(layer.stride),
      pad_(layer.pad),
      groups_(layer.groups),
      group_in_channels_(layer.group_in_channels()),
      inner_(layer.inner_length()),
      windows_(layer.windows()),
      ic_count_(ceil_div(layer.inner_length(), lanes)),
      lanes_(lanes) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(lanes >= 1);
}

void ActOrPlanes::build_row(const Value* input, std::int64_t g,
                            std::int64_t ic, std::uint16_t* row,
                            bool zero_row) const {
  if (zero_row) std::fill(row, row + windows_, std::uint16_t{0});
  const std::int64_t f_end = std::min(inner_, (ic + 1) * lanes_);
  for (std::int64_t f = ic * lanes_; f < f_end; ++f) {
    const std::int64_t ci = f / (kernel_h_ * kernel_w_);
    const std::int64_t rem = f % (kernel_h_ * kernel_w_);
    const std::int64_t ky = rem / kernel_w_;
    const std::int64_t kx = rem % kernel_w_;
    const Value* channel =
        input + (g * group_in_channels_ + ci) * in_h_ * in_w_;
    // For this kernel position, windows reading inside the input form a
    // contiguous [ox_lo, ox_hi) range per output row; everything outside
    // reads zero padding and contributes nothing to the OR.
    const std::int64_t ox_lo =
        pad_ > kx ? (pad_ - kx + stride_ - 1) / stride_ : 0;
    const std::int64_t last_ix = in_w_ - 1 + pad_ - kx;
    const std::int64_t ox_hi =
        last_ix < 0 ? 0 : std::min(out_w_, last_ix / stride_ + 1);
    if (ox_lo >= ox_hi) continue;
    for (std::int64_t oy = 0; oy < out_h_; ++oy) {
      const std::int64_t iy = oy * stride_ + ky - pad_;
      if (iy < 0 || iy >= in_h_) continue;
      const Value* in_row = channel + iy * in_w_;
      std::uint16_t* out_row = row + oy * out_w_;
      // ox >= ox_lo keeps the index non-negative, so the offset is only
      // ever applied inside the row (no before-begin pointer is formed).
      for (std::int64_t ox = ox_lo; ox < ox_hi; ++ox) {
        out_row[ox] |=
            static_cast<std::uint16_t>(in_row[ox * stride_ + kx - pad_]);
      }
    }
  }
}

void ActOrPlanes::build(const nn::Tensor& input) {
  const std::int64_t rows_total = groups_ * ic_count_;
  // A fresh resize already value-initializes the matrix; only a rebuild
  // over an existing buffer needs the per-row zero pass in build_row.
  const bool zero_rows = !masks_.empty();
  masks_.resize(static_cast<std::size_t>(rows_total * windows_));
  const Value* data = input.data().data();

  ThreadPool& pool = shared_pool();
  const std::size_t stripes =
      std::min<std::size_t>(pool.size(), static_cast<std::size_t>(rows_total));
  if (stripes <= 1) {
    for (std::int64_t r = 0; r < rows_total; ++r) {
      build_row(data, r / ic_count_, r % ic_count_,
                masks_.data() + static_cast<std::size_t>(r * windows_), zero_rows);
    }
    return;
  }
  const std::int64_t per_stripe = ceil_div(rows_total, static_cast<std::int64_t>(stripes));
  pool.parallel_for(stripes, [&](std::size_t s) {
    const std::int64_t begin = static_cast<std::int64_t>(s) * per_stripe;
    const std::int64_t end = std::min(rows_total, begin + per_stripe);
    for (std::int64_t r = begin; r < end; ++r) {
      build_row(data, r / ic_count_, r % ic_count_,
                masks_.data() + static_cast<std::size_t>(r * windows_), zero_rows);
    }
  });
}

quant::MaxDrawSample calibration_sample(const nn::Layer& layer, int lanes,
                                        int cols, int max_groups,
                                        const nn::SyntheticSource& draws) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  // The max-draw reduction only matches the OR scan for unsigned sources:
  // a signed value would sign-extend through the uint16 cast in the scan.
  LOOM_EXPECTS(!draws.spec().is_signed);
  const std::int64_t windows = layer.windows();
  const std::int64_t inner = layer.inner_length();
  const std::int64_t wb_count = ceil_div(windows, cols);
  const std::int64_t ic_count = ceil_div(inner, lanes);
  const std::int64_t total =
      static_cast<std::int64_t>(layer.groups) * wb_count * ic_count;
  const std::int64_t stride = std::max<std::int64_t>(1, total / max_groups);

  std::vector<quant::MaxDrawSample::Group> sampled;
  sampled.reserve(static_cast<std::size_t>(total / stride + 1));
  for (std::int64_t t = 0; t < total; t += stride) {
    const std::int64_t g = t / (wb_count * ic_count);
    const std::int64_t rem = t % (wb_count * ic_count);
    const std::int64_t wb = rem / ic_count;
    const std::int64_t ic = rem % ic_count;
    const std::int64_t w_end = std::min((wb + 1) * cols, windows);
    const std::int64_t f_end = std::min((ic + 1) * lanes, inner);
    quant::MaxDrawSample::Group& group = sampled.emplace_back();
    for (std::int64_t w = wb * cols; w < w_end; ++w) {
      for (std::int64_t f = ic * lanes; f < f_end; ++f) {
        const std::int64_t idx = nn::im2col_input_index(layer, g, w, f);
        if (idx < 0) continue;  // zero padding
        group.add(draws.draw(static_cast<std::uint64_t>(idx)));
      }
    }
  }
  return quant::MaxDrawSample(/*is_signed=*/false, sampled);
}

}  // namespace loom::sim
