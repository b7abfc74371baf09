// The dispatcher marshals bit-interleaved data from the Activation Memory
// into the per-cycle bit vectors the SIP columns consume, and weight planes
// from the Weight Memory into WR load words. It is where dynamic precision
// detection physically happens: the dispatcher inspects the group it is
// about to stream and emits only the needed planes.
//
// The functional engine (sim/functional.hpp) drives entire layers through
// this component, so the serial data movement of Figure 2b — not just its
// arithmetic — is executed and checked. The hot entry points take
// caller-owned spans and reuse the caller's stream scratch, so the scalar
// oracle path does not allocate inside layer inner loops.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/detector.hpp"
#include "arch/serializer.hpp"
#include "common/bitops.hpp"

namespace loom::arch {

/// One chunk's worth of serialized activations: per activation bit (MSB
/// first), per column, a packed lane word.
struct ActivationStream {
  int precision = 0;  ///< planes actually streamed (after detection)
  int columns = 0;
  /// bits[(step * columns + col)] = packed lanes for that cycle and column.
  std::vector<std::uint32_t> bits;

  [[nodiscard]] std::uint32_t lanes(int step, int col) const {
    return bits[static_cast<std::size_t>(step) * static_cast<std::size_t>(columns) +
                static_cast<std::size_t>(col)];
  }
};

/// One chunk's worth of weight-bit load words: per weight bit (LSB first),
/// per row, a packed WR word.
struct WeightStream {
  int precision = 0;
  int rows = 0;
  std::vector<std::uint32_t> bits;

  [[nodiscard]] std::uint32_t wr_word(int bit, int row) const {
    return bits[static_cast<std::size_t>(bit) * static_cast<std::size_t>(rows) +
                static_cast<std::size_t>(row)];
  }
};

class Dispatcher {
 public:
  explicit Dispatcher(int lanes = 16);

  /// Serialize a group of activation columns (each up to `lanes` values)
  /// into MSB-first per-cycle bit vectors, reusing `out`'s storage. With
  /// `dynamic` set, the precision detector trims the streamed planes to the
  /// group's needed precision (clipped to `profile_precision`).
  void stream_activations(std::span<const std::span<const Value>> columns,
                          int profile_precision, bool dynamic,
                          ActivationStream& out);

  /// Serialize weight rows (each up to `lanes` values) into LSB-first WR
  /// words, reusing `out`'s storage.
  void stream_weights(std::span<const std::span<const Value>> rows,
                      int precision, WeightStream& out);

  /// Convenience allocating overloads (tests and one-off callers).
  [[nodiscard]] ActivationStream stream_activations(
      const std::vector<std::vector<Value>>& columns, int profile_precision,
      bool dynamic);
  [[nodiscard]] WeightStream stream_weights(
      const std::vector<std::vector<Value>>& rows, int precision);

  /// Fold externally-computed streaming totals into the counters: the
  /// word-parallel kernel accounts for the same bits analytically and
  /// reports them here so dispatcher statistics stay engine-agnostic.
  void note_streamed(std::uint64_t act_bits, std::uint64_t weight_bits,
                     std::uint64_t detect_invocations,
                     std::uint64_t detect_values) noexcept {
    act_bits_ += act_bits;
    weight_bits_ += weight_bits;
    detector_.note_detections(detect_invocations, detect_values);
  }

  [[nodiscard]] const DynamicPrecisionUnit& detector() const noexcept {
    return detector_;
  }
  [[nodiscard]] std::uint64_t activation_bits_streamed() const noexcept {
    return act_bits_;
  }
  [[nodiscard]] std::uint64_t weight_bits_streamed() const noexcept {
    return weight_bits_;
  }

 private:
  int lanes_;
  DynamicPrecisionUnit detector_;
  std::uint64_t act_bits_ = 0;
  std::uint64_t weight_bits_ = 0;
};

}  // namespace loom::arch
