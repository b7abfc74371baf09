#include "nn/synthetic.hpp"

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

Tensor make_activation_tensor(const Shape3& shape, const SyntheticSpec& spec,
                              std::uint64_t seed, std::uint64_t stream) {
  const SyntheticSource src(seed, stream, spec);
  Tensor t(Shape{shape.c, shape.h, shape.w});
  const std::int64_t n = t.elements();
  for (std::int64_t i = 0; i < n; ++i) {
    t.set_flat(i, src.at(static_cast<std::uint64_t>(i)));
  }
  return t;
}

Tensor make_weight_tensor(std::int64_t count, const SyntheticSpec& spec,
                          std::uint64_t seed, std::uint64_t stream) {
  LOOM_EXPECTS(count > 0);
  const SyntheticSource src(seed, stream, spec);
  Tensor t(Shape{count});
  for (std::int64_t i = 0; i < count; ++i) {
    t.set_flat(i, src.at(static_cast<std::uint64_t>(i)));
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
