#include "common/bitops.hpp"

#include <algorithm>
#include <bit>

namespace loom {

int leading_one(std::uint32_t v) noexcept {
  if (v == 0) return -1;
  return 31 - std::countl_zero(v);
}

int needed_bits_unsigned(std::uint32_t v) noexcept {
  return std::max(1, leading_one(v) + 1);
}

int needed_bits_signed(std::int32_t v) noexcept {
  // Smallest p with v in [-2^(p-1), 2^(p-1)-1]. For non-negative values the
  // magnitude bits plus a sign bit; for negative values 32 minus the number
  // of redundant leading sign bits plus one.
  if (v == 0) return 1;
  const auto u = static_cast<std::uint32_t>(v);
  if (v > 0) return 32 - std::countl_zero(u) + 1;
  return 32 - std::countl_one(u) + 1;
}

int group_precision_unsigned(std::span<const Value> group) noexcept {
  // Hardware model: per-bit-position OR trees produce a vector of which bit
  // positions are used by any value in the group; a leading-one detector
  // then reports the precision. ORing the magnitudes and taking the leading
  // one position computes exactly that.
  std::uint32_t ored = 0;
  for (const Value v : group) {
    ored |= static_cast<std::uint32_t>(static_cast<std::uint16_t>(v));
  }
  return needed_bits_unsigned(ored);
}

Wide saturate_signed(Wide v, int bits) noexcept {
  const Wide lo = -(Wide{1} << (bits - 1));
  const Wide hi = (Wide{1} << (bits - 1)) - 1;
  return std::clamp(v, lo, hi);
}

}  // namespace loom
