#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace loom {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) {
    LOOM_EXPECTS(x > 0.0);
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
}

namespace {

constexpr std::size_t kSubMask = (1u << LatencyHistogram::kSubBits) - 1;

/// [low, high) magnitude range covered by bucket `b` (see bucket_of).
void bucket_bounds(std::size_t b, double& low, double& high) noexcept {
  constexpr std::size_t sub_bits = LatencyHistogram::kSubBits;
  if (b < (1u << sub_bits)) {  // exact small-value buckets
    low = static_cast<double>(b);
    high = low + 1.0;
    return;
  }
  const std::size_t octave = (b >> sub_bits) + sub_bits;  // bit width
  const std::size_t sub = b & kSubMask;
  const double base = std::ldexp(1.0, static_cast<int>(octave - 1));
  const double step =
      std::ldexp(1.0, static_cast<int>(octave - 1 - sub_bits));
  low = base + static_cast<double>(sub) * step;
  high = low + step;
}

}  // namespace

std::size_t LatencyHistogram::bucket_of(std::uint64_t sample) noexcept {
  const auto width = static_cast<std::size_t>(std::bit_width(sample));
  if (width <= kSubBits) return static_cast<std::size_t>(sample);
  const std::size_t sub =
      (sample >> (width - 1 - kSubBits)) & kSubMask;
  return ((width - kSubBits) << kSubBits) + sub;
}

void LatencyHistogram::add(std::uint64_t sample) noexcept {
  ++counts_[bucket_of(sample)];
  if (total_ == 0 || sample < min_) min_ = sample;
  if (sample > max_) max_ = sample;
  ++total_;
  sum_ += sample;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.total_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  min_ = total_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  total_ += other.total_;
  sum_ += other.sum_;
}

double LatencyHistogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target =
      std::max(1.0, std::ceil(q * static_cast<double>(total_)));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    const auto before = static_cast<double>(cum);
    cum += counts_[b];
    if (static_cast<double>(cum) >= target) {
      double low = 0.0;
      double high = 0.0;
      bucket_bounds(b, low, high);
      const double frac =
          (target - before) / static_cast<double>(counts_[b]);
      const double v = low + frac * (high - low);
      return std::clamp(v, static_cast<double>(min_),
                        static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

}  // namespace loom
