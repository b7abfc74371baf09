#include "quant/calibration.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "quant/group_precision.hpp"

namespace loom::quant {

namespace {

// Decorrelate the Monte-Carlo sample across calibration problems: a single
// shared sample would push the same tail fluctuation into every calibrated
// spec (observed as a systematic ~0.15-bit bias).
nn::SyntheticSource sample_source(const nn::SyntheticSpec& spec,
                                  const CalibrationOptions& opts) {
  const std::uint64_t stream =
      1 + static_cast<std::uint64_t>(spec.precision) * 131 +
      static_cast<std::uint64_t>(opts.group_size) * 17;
  return {opts.seed, stream, spec};
}

/// `items` sorted by the 53-bit draw `key(item)`: a least-significant-digit
/// radix sort on the top 24 bits (three 8-bit passes), then an insertion
/// sort for the few items those bits do not order. A comparison sort costs
/// several times more: max draws crowd toward the top of the range.
template <class T, class Key>
std::vector<T> sorted_by_draw(std::vector<T> items, Key key) {
  constexpr int kDigits = 3;
  constexpr int kLowShift = 53 - 8 * kDigits;
  const auto digit = [&](const T& x, int d) {
    return static_cast<std::size_t>((key(x) >> (kLowShift + 8 * d)) & 0xFF);
  };
  std::array<std::array<std::uint32_t, 256>, kDigits> offset{};
  for (const T& x : items) {
    for (int d = 0; d < kDigits; ++d) ++offset[d][digit(x, d)];
  }
  std::vector<T> other(items.size());
  for (int d = 0; d < kDigits; ++d) {
    std::uint32_t sum = 0;
    for (std::uint32_t& c : offset[d]) sum += std::exchange(c, sum);
    for (const T& x : items) other[offset[d][digit(x, d)]++] = x;
    items.swap(other);
  }
  for (std::size_t i = 1; i < items.size(); ++i) {
    const T x = items[i];
    std::size_t j = i;
    for (; j > 0 && key(x) < key(items[j - 1]); --j) items[j] = items[j - 1];
    items[j] = x;
  }
  return items;
}

constexpr auto draw_of = [](std::uint64_t r) { return r; };
constexpr auto neg_draw_of = [](const MaxDrawSample::Group& g) { return g.neg; };

/// Magnitude threshold m of one bisection step with its guard band.
class Threshold {
 public:
  Threshold(const nn::SyntheticSource& src, int m)
      : src_(src),
        m_(m),
        // No draw reaches a magnitude above max: an empty band past them all.
        band_(m <= src.max_magnitude()
                  ? src.threshold_band(m)
                  : nn::SyntheticSource::Band{~std::uint64_t{0}, ~std::uint64_t{0}}) {}

  [[nodiscard]] bool reached_by(std::uint64_t r) const noexcept {
    if (r >= band_.hi) return true;
    if (r < band_.lo) return false;
    return src_.magnitude_for_draw(static_cast<double>(r) * 0x1.0p-53) >= m_;
  }

  /// Index of the first item, in order of the draw `key(item)`, whose draw
  /// reaches m.
  template <class T, class Key>
  [[nodiscard]] std::size_t first_in(const std::vector<T>& sorted, Key key) const {
    const auto below = [&](const T& x, std::uint64_t r) { return key(x) < r; };
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), band_.lo, below);
    const auto hi = std::lower_bound(lo, sorted.end(), band_.hi, below);
    return static_cast<std::size_t>(
        std::partition_point(lo, hi, [&](const T& x) { return !reached_by(key(x)); }) -
        sorted.begin());
  }

 private:
  const nn::SyntheticSource& src_;
  int m_;
  nn::SyntheticSource::Band band_;
};

}  // namespace

MaxDrawSample::MaxDrawSample(bool is_signed, std::span<const Group> groups)
    : is_signed_(is_signed), group_count_(groups.size()) {
  // Branch-free split: which side leads is random.
  std::vector<std::uint64_t> pos_led(groups.size());
  neg_led_.resize(groups.size());
  std::size_t pos_count = 0;
  std::size_t neg_count = 0;
  for (const Group& g : groups) {
    const bool led = !is_signed || g.pos >= g.neg;
    pos_led[pos_count] = g.pos;
    neg_led_[neg_count] = g;
    pos_count += led ? 1 : 0;
    neg_count += led ? 0 : 1;
  }
  pos_led.resize(pos_count);
  neg_led_.resize(neg_count);
  pos_led_ = sorted_by_draw(std::move(pos_led), draw_of);
  neg_led_ = sorted_by_draw(std::move(neg_led_), neg_draw_of);
}

double MaxDrawSample::mean_precision(const nn::SyntheticSource& src) const {
  LOOM_EXPECTS(src.spec().is_signed == is_signed_);
  if (group_count_ == 0) return 0.0;
  // Every group's precision is 1 plus its count of thresholds passed.
  auto sum = static_cast<std::int64_t>(group_count_);
  const int max = src.max_magnitude();
  for (int k = is_signed_ ? 0 : 1; (1 << k) <= max; ++k) {
    const Threshold power(src, 1 << k);
    sum += static_cast<std::int64_t>(pos_led_.size() - power.first_in(pos_led_, draw_of));
    if (!is_signed_) continue;
    const Threshold above(src, (1 << k) + 1);
    const std::size_t end = above.first_in(neg_led_, neg_draw_of);
    sum += static_cast<std::int64_t>(neg_led_.size() - end);
    // -2^k needs one bit less than 2^k: a group whose negative magnitude is
    // exactly 2^k still widens when its positive one is 2^k too.
    for (std::size_t i = power.first_in(neg_led_, neg_draw_of); i < end; ++i) {
      sum += power.reached_by(neg_led_[i].pos) ? 1 : 0;
    }
  }
  // The integer sum is exact, so the mean equals the per-group scan's.
  return static_cast<double>(sum) / static_cast<double>(group_count_);
}

double measure_mean_group_precision(const nn::SyntheticSpec& spec,
                                    const CalibrationOptions& opts) {
  const nn::SyntheticSource source = sample_source(spec, opts);
  const std::int64_t count =
      opts.sample_groups * static_cast<std::int64_t>(opts.group_size);
  const GroupPrecisionStats stats =
      spec.is_signed ? weight_group_stats(source, count, opts.group_size)
                     : activation_group_stats(source, count, opts.group_size);
  return stats.mean;
}

nn::SyntheticSpec calibrate_to_group_precision(nn::SyntheticSpec spec,
                                               double target_mean_precision,
                                               const CalibrationOptions& opts) {
  LOOM_EXPECTS(target_mean_precision >= 1.0);
  LOOM_EXPECTS(opts.sample_groups > 0 && opts.group_size > 0);
  constexpr double kMinLogAlpha = 0.0;   // alpha = 1
  constexpr double kMaxLogAlpha = 16.0;  // alpha ~ 8.9e6

  // The groups measure_mean_group_precision scans, reduced once to their
  // max draws: each measurement below equals that scan's mean exactly.
  spec.alpha = 1.0;
  std::vector<MaxDrawSample::Group> groups(static_cast<std::size_t>(opts.sample_groups));
  sample_source(spec, opts).max_draws(0, opts.group_size, groups);
  const MaxDrawSample sample(spec.is_signed, groups);
  const auto measure = [&](const nn::SyntheticSpec& s) {
    return sample.mean_precision(sample_source(s, opts));
  };

  const double at_min = measure(spec);
  if (target_mean_precision >= at_min) return spec;  // already below target

  double lo = kMinLogAlpha;  // mean precision high here
  double hi = kMaxLogAlpha;  // mean precision low here
  for (int it = 0; it < opts.max_iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    spec.alpha = std::exp(mid);
    const double measured = measure(spec);
    if (std::abs(measured - target_mean_precision) <= opts.tolerance) return spec;
    if (measured > target_mean_precision) {
      lo = mid;  // need more concentration
    } else {
      hi = mid;
    }
  }
  spec.alpha = std::exp(0.5 * (lo + hi));
  return spec;
}

const nn::SyntheticSpec& calibrated_spec_cached(int precision, bool is_signed,
                                                double zero_fraction,
                                                int group_size,
                                                double target_mean_precision) {
  using KeyType = std::tuple<int, bool, std::uint64_t, int, std::uint64_t>;
  // Exact keys: the deferred calibration below runs on the caller's exact
  // values, so a rounded key would hand near-equal targets whichever spec
  // was inserted first (thread order under the runner's fan-out).
  const KeyType key{precision, is_signed,
                    std::bit_cast<std::uint64_t>(zero_fraction), group_size,
                    std::bit_cast<std::uint64_t>(target_mean_precision)};
  // Guarded: workloads calibrate concurrently under the runner's `jobs`
  // fan-out. The map stores one deferred shared_future per key, so the lock
  // only covers lookup/insert: the first caller of get() runs the
  // Monte-Carlo bisection, same-key callers wait for that one result
  // (no duplicated work), and distinct keys calibrate concurrently.
  // shared_future::get() returns a reference into the shared state; a
  // successful entry is never evicted, so the cache keeps that state (and
  // the returned reference) alive for the process lifetime.
  struct Entry {
    std::uint64_t gen = 0;
    std::shared_future<nn::SyntheticSpec> fut;
  };
  static std::mutex cache_mutex;
  static std::map<KeyType, Entry> cache;
  static std::uint64_t next_gen = 0;

  std::shared_future<nn::SyntheticSpec> fut;
  std::uint64_t gen = 0;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) {
      fut = it->second.fut;
      gen = it->second.gen;
    } else {
      fut = std::async(std::launch::deferred,
                       [precision, is_signed, zero_fraction, group_size,
                        target_mean_precision] {
                         nn::SyntheticSpec spec;
                         spec.precision = precision;
                         spec.is_signed = is_signed;
                         spec.zero_fraction = zero_fraction;
                         CalibrationOptions opts;
                         opts.group_size = group_size;
                         return calibrate_to_group_precision(
                             spec, target_mean_precision, opts);
                       })
                .share();
      gen = ++next_gen;
      cache.emplace(key, Entry{gen, fut});
    }
  }
  try {
    return fut.get();
  } catch (...) {
    // Don't poison the cache with a failed (possibly transient) attempt:
    // evict so the next caller retries. The generation check makes sure we
    // only evict the exact attempt that threw — never a successor's fresh
    // (possibly already-succeeded) entry, whose shared state callers may
    // be holding references into.
    const std::lock_guard<std::mutex> lock(cache_mutex);
    const auto it = cache.find(key);
    if (it != cache.end() && it->second.gen == gen) cache.erase(it);
    throw;
  }
}

}  // namespace loom::quant
