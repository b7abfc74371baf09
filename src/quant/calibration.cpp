#include "quant/calibration.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <tuple>

#include "common/bitops.hpp"
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

}  // namespace

void MaxDrawSample::reserve(std::size_t groups) { groups_.reserve(groups); }

void MaxDrawSample::open_group() { groups_.push_back({-1.0, -1.0}); }

double MaxDrawSample::mean_precision(const nn::SyntheticSource& src) const {
  LOOM_EXPECTS(src.spec().is_signed == is_signed_);
  double sum = 0.0;
  for (const auto& [pos, neg] : groups_) {
    if (!is_signed_) {
      // Unsigned 16-bit magnitudes wrap through Value; the uint16 cast
      // restores them, as the scan's OR does.
      sum += needed_bits_unsigned(
          static_cast<std::uint16_t>(src.magnitude_for_draw(pos)));
      continue;
    }
    // One pow decides most groups. A larger draw has a larger magnitude and
    // nbs(m) >= nbs(-m), so a positive max draw at least as large as the
    // negative one decides alone. Otherwise the negative magnitude n
    // decides, except when n is 0 or a power of two: -2^k needs one bit
    // less than 2^k, so an equal positive magnitude can still widen it.
    int p = 0;
    if (pos >= neg) {
      p = needed_bits_signed(src.magnitude_for_draw(pos));
    } else {
      const std::int32_t n = src.magnitude_for_draw(neg);
      p = needed_bits_signed(-n);
      if ((n & (n - 1)) == 0) {
        p = std::max(p, needed_bits_signed(src.magnitude_for_draw(pos)));
      }
    }
    sum += std::max(1, p);
  }
  return groups_.empty() ? 0.0 : sum / static_cast<double>(groups_.size());
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
  const nn::SyntheticSource draws = sample_source(spec, opts);
  MaxDrawSample sample(spec.is_signed);
  sample.reserve(static_cast<std::size_t>(opts.sample_groups));
  std::uint64_t index = 0;
  for (std::int64_t g = 0; g < opts.sample_groups; ++g) {
    sample.open_group();
    for (int i = 0; i < opts.group_size; ++i) sample.add(draws.draw(index++));
  }
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
