#include "quant/profiler.hpp"

#include "common/error.hpp"
#include "quant/quantize.hpp"

namespace loom::quant {

int profile_precision(const nn::Tensor& t, const ProfilerOptions& opts) {
  LOOM_EXPECTS(opts.mse_budget >= 0.0);
  // Mean squared value of the tensor (budget reference).
  double ms = 0.0;
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const double v = t.flat(i);
    ms += v * v;
  }
  ms = t.elements() ? ms / static_cast<double>(t.elements()) : 0.0;
  const double budget = opts.mse_budget * ms;

  for (int bits = 1; bits <= kBasePrecision; ++bits) {
    const double err = opts.is_signed ? clip_mse_signed(t, bits)
                                      : clip_mse_unsigned(t, bits);
    if (err <= budget) return bits;
  }
  return kBasePrecision;
}

}  // namespace loom::quant
