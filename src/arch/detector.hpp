// Hardware model of the dynamic precision detection unit (§3.2 "Dynamic
// Precision Reduction"): per-bit-position OR trees over the group of
// concurrently processed activations produce a 16-bit usage vector; a
// leading-one detector reports the sufficient precision. This component
// operates on the same bit-plane layout the Activation Memory stores.
#pragma once

#include <cstdint>
#include <span>

#include "common/bitops.hpp"

namespace loom::arch {

class DynamicPrecisionUnit {
 public:
  /// Detect the needed precision of a group of unsigned activations given
  /// in value form. Returns at least 1 (a zero group still costs a cycle).
  [[nodiscard]] int detect(std::span<const Value> group) noexcept;

  /// Detect over a group given as per-column spans (the dispatcher's fetch
  /// group) without concatenating into a temporary buffer. One detector
  /// invocation, same result as detect() on the concatenation.
  [[nodiscard]] int detect(
      std::span<const std::span<const Value>> columns) noexcept;

  /// Fold externally-computed detections into the counters. The
  /// word-parallel functional kernel evaluates the same OR groups while it
  /// packs and reports them here so detector statistics stay
  /// engine-agnostic.
  void note_detections(std::uint64_t invocations, std::uint64_t values) noexcept {
    invocations_ += invocations;
    values_ += values;
  }

  [[nodiscard]] std::uint64_t invocations() const noexcept { return invocations_; }
  [[nodiscard]] std::uint64_t values_inspected() const noexcept { return values_; }

 private:
  std::uint64_t invocations_ = 0;
  std::uint64_t values_ = 0;
};

}  // namespace loom::arch
