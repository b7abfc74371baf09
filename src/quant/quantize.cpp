#include "quant/quantize.hpp"

#include <algorithm>

namespace loom::quant {

Value clip_signed(std::int32_t v, int bits) noexcept {
  const std::int32_t hi = (1 << (bits - 1)) - 1;
  const std::int32_t lo = -(1 << (bits - 1));
  return static_cast<Value>(std::clamp(v, lo, hi));
}

Value clip_unsigned(std::int32_t v, int bits) noexcept {
  const std::int32_t hi = (1 << bits) - 1;
  return static_cast<Value>(std::clamp(v, 0, hi));
}

double clip_mse_signed(const nn::Tensor& t, int bits) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const Value v = t.flat(i);
    const double d = static_cast<double>(v) - clip_signed(v, bits);
    acc += d * d;
  }
  return t.elements() ? acc / static_cast<double>(t.elements()) : 0.0;
}

double clip_mse_unsigned(const nn::Tensor& t, int bits) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const Value v = t.flat(i);
    const double d = static_cast<double>(v) -
                     clip_unsigned(static_cast<std::int32_t>(v), bits);
    acc += d * d;
  }
  return t.elements() ? acc / static_cast<double>(t.elements()) : 0.0;
}

}  // namespace loom::quant
