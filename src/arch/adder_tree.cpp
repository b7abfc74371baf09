#include "arch/adder_tree.hpp"

#include <bit>

#include "common/error.hpp"

namespace loom::arch {

AdderTree::AdderTree(int fan_in) : fan_in_(fan_in) {
  LOOM_EXPECTS(fan_in >= 1);
  depth_ = 0;
  for (int n = 1; n < fan_in; n *= 2) ++depth_;
}

int AdderTree::reduce_bits(std::uint32_t packed_bits) const noexcept {
  const std::uint32_t mask =
      fan_in_ >= 32 ? 0xFFFFFFFFu : ((1u << fan_in_) - 1u);
  return std::popcount(packed_bits & mask);
}

}  // namespace loom::arch
