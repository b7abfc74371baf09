// Fixed-point precision clipping helpers, used by the profiler and the
// tests.
#pragma once

#include "common/bitops.hpp"
#include "nn/tensor.hpp"

namespace loom::quant {

/// Saturate a signed value into `bits` bits of two's complement.
[[nodiscard]] Value clip_signed(std::int32_t v, int bits) noexcept;

/// Saturate a non-negative value into `bits` unsigned bits.
[[nodiscard]] Value clip_unsigned(std::int32_t v, int bits) noexcept;

/// Mean squared error between a tensor and its `bits`-bit clipped version;
/// the profiler uses this as the fidelity proxy.
[[nodiscard]] double clip_mse_signed(const nn::Tensor& t, int bits);
[[nodiscard]] double clip_mse_unsigned(const nn::Tensor& t, int bits);

}  // namespace loom::quant
