#include "nn/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace loom::nn {

SyntheticSource::SyntheticSource(std::uint64_t seed, std::uint64_t stream,
                                 SyntheticSpec spec)
    : rng_(seed, stream), spec_(spec) {
  LOOM_EXPECTS(spec.precision >= 1 && spec.precision <= kBasePrecision);
  LOOM_EXPECTS(spec.alpha >= 1.0);
  LOOM_EXPECTS(spec.zero_fraction >= 0.0 && spec.zero_fraction < 1.0);
  // Signed precision p covers magnitudes up to 2^(p-1)-1 (we avoid the
  // asymmetric minimum so negation in the datapath cannot overflow).
  max_magnitude_ = spec.is_signed ? (1 << (spec.precision - 1)) - 1
                                  : (1 << spec.precision) - 1;
  if (spec_.is_signed && max_magnitude_ == 0) max_magnitude_ = 1;  // p==1 -> {-1,0,1}? keep {0,1}
}

Value SyntheticSource::at(std::uint64_t index) const noexcept {
  const std::uint64_t raw = rng_.bits(index);
  // Derive uniform, sign and zero-gate from independent bit fields.
  const double u = static_cast<double>(raw >> 11) * 0x1.0p-53;
  const bool negative = spec_.is_signed && ((raw & 1u) != 0);
  const double zgate = static_cast<double>((raw >> 1) & 0x3FF) * 0x1.0p-10;
  if (zgate < spec_.zero_fraction) return 0;

  const std::int32_t mag = magnitude_for_draw(u);
  return static_cast<Value>(negative ? -mag : mag);
}

SyntheticSource::Draw SyntheticSource::draw(std::uint64_t index) const noexcept {
  const std::uint64_t raw = rng_.bits(index);
  const double zgate = static_cast<double>((raw >> 1) & 0x3FF) * 0x1.0p-10;
  // Branch-free: the gate fires at random on zero_fraction of the draws, so
  // a branch here mispredicts and roughly doubles the cost of a draw.
  // `live` is all ones for a live value; a dead one scales -2^53 to -1.0.
  const std::int64_t live =
      -static_cast<std::int64_t>(!(zgate < spec_.zero_fraction));
  const std::int64_t scaled = (static_cast<std::int64_t>(raw >> 11) & live) |
                              (-(std::int64_t{1} << 53) & ~live);
  return {static_cast<double>(scaled) * 0x1.0p-53,
          spec_.is_signed && (static_cast<std::int64_t>(raw) & live & 1) != 0};
}

Value SyntheticSource::magnitude_for_draw(double u) const noexcept {
  if (u < 0.0) return 0;
  const double scaled =
      static_cast<double>(max_magnitude_ + 1) * std::pow(u, spec_.alpha);
  auto mag = static_cast<std::int32_t>(scaled);
  if (mag > max_magnitude_) mag = max_magnitude_;
  return static_cast<Value>(mag);
}

SyntheticStream::SyntheticStream(const SyntheticSource& source, std::int64_t count)
    : source_(source) {
  const int max = source.max_magnitude();
  if (count < kMinTabulatedCount + 2 * static_cast<std::int64_t>(max)) return;
  const SyntheticSpec& spec = source.spec();
  // The gate k * 2^-10 < zero_fraction holds iff k < ceil(zero_fraction *
  // 2^10): the scaling is exact.
  live_from_ = static_cast<std::uint64_t>(std::ceil(spec.zero_fraction * 0x1.0p10));
  sign_bit_ = spec.is_signed ? 1 : 0;

  const auto thresholds = static_cast<std::size_t>(max);
  bands_.resize(thresholds + 2);
  // max+1 is a power of two, so m / (max+1) is exact.
  const double step = 1.0 / static_cast<double>(max + 1);
  const double inv_alpha = 1.0 / spec.alpha;
  for (std::size_t m = 1; m <= thresholds; ++m) {
    const double t = std::pow(static_cast<double>(m) * step, inv_alpha) * 0x1.0p53;
    bands_[m] = {static_cast<std::uint64_t>(std::floor(t * (1.0 - 0x1.0p-30))),
                 static_cast<std::uint64_t>(std::ceil(t * (1.0 + 0x1.0p-30)))};
  }
  // Sorted band edges keep the count exact where pow's rounding inverts two
  // neighbours (alpha far above 2^36 makes them equal to within an ulp):
  // widening a band only sends more draws to the fallback.
  for (std::size_t m = 2; m <= thresholds; ++m) {
    bands_[m].hi = std::max(bands_[m].hi, bands_[m - 1].hi);
  }
  for (std::size_t m = thresholds; m > 1; --m) {
    bands_[m - 1].lo = std::min(bands_[m - 1].lo, bands_[m].lo);
  }
  bands_[thresholds + 1] = {~std::uint64_t{0}, ~std::uint64_t{0}};

  // Bucket b starts at r = b * 2^37 and holds m for every start in
  // [hi_m, hi_(m+1)): the buckets below ceil(hi_(m+1) / 2^37), as hi >= 1.
  start_.resize(std::size_t{1} << (53 - kBucketShift));
  std::size_t b = 0;
  for (std::size_t m = 0; m <= thresholds; ++m) {
    const std::uint64_t end = std::min<std::uint64_t>(
        ((bands_[m + 1].hi - 1) >> kBucketShift) + 1, start_.size());
    for (; b < end; ++b) start_[b] = static_cast<std::uint16_t>(m);
  }
}

Tensor make_activation_tensor(const Shape3& shape, const SyntheticSpec& spec,
                              std::uint64_t seed, std::uint64_t stream) {
  Tensor t(Shape{shape.c, shape.h, shape.w});
  const std::int64_t n = t.elements();
  const SyntheticStream values(SyntheticSource(seed, stream, spec), n);
  for (std::int64_t i = 0; i < n; ++i) {
    t.set_flat(i, values.at(static_cast<std::uint64_t>(i)));
  }
  return t;
}

Tensor make_weight_tensor(std::int64_t count, const SyntheticSpec& spec,
                          std::uint64_t seed, std::uint64_t stream) {
  LOOM_EXPECTS(count > 0);
  const SyntheticStream values(SyntheticSource(seed, stream, spec), count);
  Tensor t(Shape{count});
  for (std::int64_t i = 0; i < count; ++i) {
    t.set_flat(i, values.at(static_cast<std::uint64_t>(i)));
  }
  return t;
}

std::uint64_t activation_stream(std::uint64_t layer_index) noexcept {
  return 0x4143540000000000ull ^ layer_index;  // "ACT"
}

std::uint64_t weight_stream(std::uint64_t layer_index) noexcept {
  return 0x5747540000000000ull ^ layer_index;  // "WGT"
}

}  // namespace loom::nn
