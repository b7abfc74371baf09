// Small statistics helpers used by the comparison harness and the
// calibration code: means, geometric means (the paper reports geomeans)
// and a streaming accumulator.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace loom {

/// Arithmetic mean; 0 for an empty range.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Geometric mean; requires all inputs > 0. Returns 0 for an empty range.
[[nodiscard]] double geomean(std::span<const double> xs);

/// Streaming accumulator for count/sum/min/max/mean.
class Accumulator {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponentially weighted moving average: value' = alpha*x + (1-alpha)*value.
/// The first sample seeds the average directly (no zero bias). Used by the
/// shard router's per-shard error-rate and latency health signals.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.3) noexcept : alpha_(alpha) {}

  void add(double x) noexcept {
    value_ = seeded_ ? alpha_ * x + (1.0 - alpha_) * value_ : x;
    seeded_ = true;
  }
  void reset() noexcept {
    value_ = 0.0;
    seeded_ = false;
  }

  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] bool seeded() const noexcept { return seeded_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Fixed-footprint log-bucketed histogram over non-negative 64-bit samples
/// (nanosecond latencies in practice): 4 sub-buckets per power of two, so
/// any quantile is recovered with <= ~12.5% relative error from 256 counters
/// and no allocation. Copyable — serving stats snapshot it by value.
class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBits = 2;  ///< sub-buckets per octave = 4
  static constexpr std::size_t kBuckets = 64u << kSubBits;

  void add(std::uint64_t sample) noexcept;
  void merge(const LatencyHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return total_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_) : 0.0;
  }

  /// Quantile q in [0, 1]: the smallest recorded magnitude with at least
  /// ceil(q * count) samples at or below it, interpolated linearly inside
  /// its bucket and clamped to the exact observed min/max. 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }

  /// Bucket index a sample lands in (exposed for tests).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t sample) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace loom
