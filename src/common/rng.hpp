// Deterministic counter-based random number generation.
//
// Paper-scale workloads (VGG-19 has >140M weights) cannot be materialized in
// memory on a laptop. Instead every synthetic tensor element is generated
// on demand from a pure function of (seed, stream, index) using the
// splitmix64 finalizer. The same index always yields the same value, so the
// simulators, the profiler and the tests all observe an identical "virtual
// tensor" without storing it.
#pragma once

#include <cstdint>

namespace loom {

/// splitmix64 finalizer: a high-quality 64-bit mixing function.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Stateless counter-based RNG. Cheap to copy; all draws are pure functions
/// of the key material.
class CounterRng {
 public:
  CounterRng(std::uint64_t seed, std::uint64_t stream) noexcept
      : key_(mix64(seed ^ (stream * 0x9E3779B97F4A7C15ull))) {}

  /// Added to the index before it meets the key.
  static constexpr std::uint64_t kIndexSalt = 0x632BE59BD9B4E019ull;

  /// Uniform 64-bit draw for element `index` of the stream.
  [[nodiscard]] std::uint64_t bits(std::uint64_t index) const noexcept {
    return mix64(key_ ^ (index + kIndexSalt));
  }

  /// The mixed key material: bits(i) == mix64(key() ^ (i + kIndexSalt)),
  /// for readers that evaluate many indices at once.
  [[nodiscard]] std::uint64_t key() const noexcept { return key_; }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform(std::uint64_t index) const noexcept;

  /// Uniform integer in [0, n).
  [[nodiscard]] std::uint64_t below(std::uint64_t index, std::uint64_t n) const noexcept;

 private:
  std::uint64_t key_;
};

/// Sequential convenience wrapper around CounterRng for test code that wants
/// classic next()-style draws.
class SequentialRng {
 public:
  explicit SequentialRng(std::uint64_t seed, std::uint64_t stream = 0) noexcept
      : rng_(seed, stream) {}

  [[nodiscard]] std::uint64_t next_bits() noexcept { return rng_.bits(counter_++); }
  [[nodiscard]] double next_uniform() noexcept { return rng_.uniform(counter_++); }
  [[nodiscard]] std::uint64_t next_below(std::uint64_t n) noexcept {
    return rng_.below(counter_++, n);
  }

 private:
  CounterRng rng_;
  std::uint64_t counter_ = 0;
};

}  // namespace loom
