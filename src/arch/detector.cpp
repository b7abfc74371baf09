#include "arch/detector.hpp"

namespace loom::arch {

int DynamicPrecisionUnit::detect(std::span<const Value> group) noexcept {
  ++invocations_;
  values_ += group.size();
  return group_precision_unsigned(group);
}

int DynamicPrecisionUnit::detect(
    std::span<const std::span<const Value>> columns) noexcept {
  ++invocations_;
  std::uint32_t ored = 0;
  for (const auto& col : columns) {
    values_ += col.size();
    for (const Value v : col) {
      ored |= static_cast<std::uint32_t>(static_cast<std::uint16_t>(v));
    }
  }
  return needed_bits_unsigned(ored);
}

}  // namespace loom::arch
