// Bit-level utilities used throughout the precision-analysis and datapath
// code: needed-precision computation for signed/unsigned fixed-point values,
// leading-one detection (the hardware primitive behind dynamic precision
// reduction), and bit extraction helpers for the bit-serial datapath.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace loom {

/// Fixed-point value type used across the library. The paper's baseline is
/// 16-bit fixed point; we keep intermediate products in 64 bits.
using Value = std::int16_t;
using Wide = std::int64_t;

/// Maximum precision (bits) of the baseline representation.
inline constexpr int kBasePrecision = 16;

/// Position (0-based) of the most significant set bit of `v`, or -1 if v==0.
/// This is the "leading one detector" of the paper's dynamic precision unit.
[[nodiscard]] int leading_one(std::uint32_t v) noexcept;

/// Number of bits needed to represent the unsigned value `v` exactly.
/// Zero needs 1 bit by convention (the hardware still spends one cycle).
[[nodiscard]] int needed_bits_unsigned(std::uint32_t v) noexcept;

/// Number of bits needed to represent `v` in two's complement, including
/// the sign bit. E.g. 0 -> 1, 1 -> 2, -1 -> 1, 127 -> 8, -128 -> 8.
[[nodiscard]] int needed_bits_signed(std::int32_t v) noexcept;

/// Needed unsigned precision of the maximum over a group of non-negative
/// values (the per-group activation precision the OR-tree detector finds).
[[nodiscard]] int group_precision_unsigned(std::span<const Value> group) noexcept;

/// Extract bit `bit` (0 = LSB) of the two's-complement representation of v.
[[nodiscard]] inline int bit_of(Value v, int bit) noexcept {
  return (static_cast<std::uint16_t>(v) >> bit) & 1;
}

/// Extract a field of `width` bits starting at `bit` (LSB-first) from v.
[[nodiscard]] inline std::uint32_t bits_of(Value v, int bit, int width) noexcept {
  const auto u = static_cast<std::uint32_t>(static_cast<std::uint16_t>(v));
  return (u >> bit) & ((1u << width) - 1u);
}

/// Clamp a wide accumulator into the signed range of `bits` bits
/// (saturating quantization used when writing output activations back).
[[nodiscard]] Wide saturate_signed(Wide v, int bits) noexcept;

/// Round `p` up to the next multiple of `m` (m in {1,2,4}); used by the
/// LM2b/LM4b variants which only accommodate precisions that are multiples
/// of the number of bits processed per cycle.
[[nodiscard]] inline int round_up(int p, int m) noexcept {
  return ((p + m - 1) / m) * m;
}

/// Ceiling division for non-negative integers.
[[nodiscard]] inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
  return (a + b - 1) / b;
}

/// Bit positions of the positive (`+2^k`) and negative (`-2^k`) digits of
/// the non-adjacent form of `mag` — the dp/dm decomposition a term-serial
/// weight lane uses to enumerate effectual weight terms. Requires
/// mag < 2^30 (one headroom bit for mag + 2*mag).
struct NafDigits {
  std::uint32_t plus = 0;
  std::uint32_t minus = 0;
  [[nodiscard]] std::uint32_t positions() const noexcept { return plus | minus; }
};

[[nodiscard]] inline NafDigits naf_digits(std::uint32_t mag) noexcept {
  const std::uint32_t m3 = mag + (mag << 1);
  return {(m3 & ~mag) >> 1, (mag & ~m3) >> 1};
}

/// FNV-1a over a byte range — the shared checksum/hash primitive behind
/// the section-file checksums (common/section_file.hpp), the shard router's
/// rendezvous hash and the autotune cache's backend-roster hash.
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a over the bytes of a string.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view s) noexcept {
  return fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

}  // namespace loom
