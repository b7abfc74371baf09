// Functional adder-tree model: the SIP's 16-input 1-bit tree
// (reduce_bits). Tracks the reduction depth, which sets the pipeline
// latency charged by the cycle models.
#pragma once

#include <cstdint>

namespace loom::arch {

class AdderTree {
 public:
  explicit AdderTree(int fan_in);

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
