// Profile-derived precision selection in the style of Judd et al. [6]:
// find, per tensor, the smallest precision whose quantization error stays
// within a fidelity budget. The paper ran this against network accuracy on
// ImageNet; our proxy is value fidelity (exactness for the 100% target, a
// small mean-squared-error budget for the 99% target), which produces tight
// profiles on the calibrated synthetic tensors and is validated in
// bench_table1 against the encoded Table 1.
#pragma once

#include "nn/tensor.hpp"

namespace loom::quant {

struct ProfilerOptions {
  /// Allowed mean-squared clipping error relative to the tensor's mean
  /// squared value. 0 demands losslessness (the 100% accuracy target).
  double mse_budget = 0.0;
  bool is_signed = true;
};

/// Minimum precision meeting the fidelity budget (1..16).
[[nodiscard]] int profile_precision(const nn::Tensor& t, const ProfilerOptions& opts);

}  // namespace loom::quant
