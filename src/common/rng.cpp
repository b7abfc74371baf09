#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace loom {

double CounterRng::uniform(std::uint64_t index) const noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(bits(index) >> 11) * 0x1.0p-53;
}

std::uint64_t CounterRng::below(std::uint64_t index, std::uint64_t n) const noexcept {
  if (n == 0) return 0;
  // Modulo reduction; the bias is below 2^-32 for the n this library uses
  // (tensor extents), far under any statistic we measure.
  return bits(index) % n;
}

double CounterRng::normal(std::uint64_t index) const noexcept {
  // Box-Muller from two decorrelated uniforms derived from the same index.
  const double u1 = static_cast<double>(mix64(bits(index)) >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(mix64(bits(index) ^ 0xD1B54A32D192ED03ull) >> 11) * 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1 + 0x1.0p-60));
  return r * std::cos(2.0 * std::numbers::pi * u2);
}

double CounterRng::exponential(std::uint64_t index) const noexcept {
  return -std::log(1.0 - uniform(index) + 0x1.0p-60);
}

}  // namespace loom
