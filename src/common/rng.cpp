#include "common/rng.hpp"

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

}  // namespace loom
