// Functional adder-tree model: the SIP's 16-input 1-bit tree (reduce_bits)
// and the multi-bit reduction of a bit-parallel tree (reduce). Tracks the
// reduction depth, which sets the pipeline latency charged by the cycle
// models.
#pragma once

#include <cstdint>
#include <span>

#include "common/bitops.hpp"

namespace loom::arch {

class AdderTree {
 public:
  explicit AdderTree(int fan_in);

  /// Sum of the first fan_in inputs (missing inputs read as zero).
  [[nodiscard]] Wide reduce(std::span<const Wide> inputs) const noexcept;

  /// Population count reduction for 1-bit partial products.
  [[nodiscard]] int reduce_bits(std::uint32_t packed_bits) const noexcept;

  [[nodiscard]] int fan_in() const noexcept { return fan_in_; }
  /// ceil(log2(fan_in)): number of adder levels = pipeline stages.
  [[nodiscard]] int depth() const noexcept { return depth_; }

 private:
  int fan_in_;
  int depth_;
};

}  // namespace loom::arch
