// Synthetic, deterministic workload generation.
//
// We do not have the paper's trained ImageNet models, so tensor *values* are
// synthesized from calibrated distributions (see quant/calibration.hpp) that
// reproduce the published precision behaviour: the per-layer needed
// precision equals the Table 1 profile, and the per-group effective
// precisions (what the dynamic-precision hardware detects at runtime) match
// the reductions the paper reports. All values derive from a counter-based
// RNG keyed by (seed, stream, index), so weight tensors with 10^8 elements
// are streamed rather than stored.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace loom::nn {

/// Distribution of synthetic fixed-point values.
///
/// magnitude = floor(max_magnitude * u^alpha) for u ~ U[0,1); larger alpha
/// concentrates values toward zero, lowering the *group* effective precision
/// while keeping the per-tensor maximum at the profile precision (with high
/// probability for realistic tensor sizes).
struct SyntheticSpec {
  int precision = 8;          ///< needed bits: unsigned for activations, two's-complement (incl. sign) for weights
  double alpha = 1.0;         ///< concentration exponent (>= 1)
  bool is_signed = false;     ///< weights are signed, post-ReLU activations are not
  double zero_fraction = 0.0; ///< extra probability mass at exactly zero (ReLU sparsity)
};

/// Streams deterministic values: element `index` is a pure function of
/// (seed, stream, index, spec).
class SyntheticSource {
 public:
  SyntheticSource(std::uint64_t seed, std::uint64_t stream, SyntheticSpec spec);

  [[nodiscard]] Value at(std::uint64_t index) const noexcept;
  [[nodiscard]] const SyntheticSpec& spec() const noexcept { return spec_; }

  /// The random state behind one element, before alpha shapes it.
  struct Draw {
    std::uint64_t r = 0;    ///< 53-bit draw (u = r * 2^-53); 0 when the zero gate fires
    bool negative = false;  ///< sign of a live value (always false when unsigned)
  };

  /// Draw behind element `index`. It depends only on (seed, stream, index,
  /// zero_fraction, is_signed) — not on alpha — and `at(index)` equals
  /// `(negative ? -1 : 1) * magnitude_for_draw(r * 2^-53)`.
  [[nodiscard]] Draw draw(std::uint64_t index) const noexcept;

  /// Largest draws of a group of elements: behind a positive value and
  /// behind a negative one (0 when there is none; a zero-gated value draws
  /// 0, which maps to magnitude 0 like a missing value).
  struct MaxDraws {
    std::uint64_t pos = 0;
    std::uint64_t neg = 0;

    /// Folds one draw in (branch-free: the sign is random).
    void add(const Draw& d) noexcept {
      const std::uint64_t neg_mask = 0 - static_cast<std::uint64_t>(d.negative);
      pos = std::max(pos, d.r & ~neg_mask);
      neg = std::max(neg, d.r & neg_mask);
    }
  };

  /// `out[g]` takes the max draws of elements `begin + g * group_size` up to
  /// the next group's first (indices wrap modulo 2^64). At the AVX-512 tier
  /// 16 draws are taken per step; every tier gives the same result as
  /// folding `draw(i)` one element at a time.
  void max_draws(std::uint64_t begin, int group_size, std::span<MaxDraws> out) const;

  /// Magnitude the source emits for uniform draw `u` under the current
  /// spec (monotone non-decreasing in `u`; -1.0 maps to 0). Calibration
  /// exploits this monotonicity: a group's precision for *any* alpha follows
  /// from its maximum draws (quant::MaxDrawSample). Unsigned, since an
  /// unsigned Pa-16 source reaches 65535.
  [[nodiscard]] std::uint16_t magnitude_for_draw(double u) const noexcept;

  /// Largest magnitude the source can emit.
  [[nodiscard]] int max_magnitude() const noexcept { return max_magnitude_; }

  /// A threshold's guard band: every draw r < lo stays below the magnitude,
  /// every r >= hi reaches it, and a draw in between must ask
  /// magnitude_for_draw.
  struct Band {
    std::uint64_t lo;
    std::uint64_t hi;
  };

  /// Guard band of magnitude m, 1 <= m <= max_magnitude(); one `pow`.
  ///
  /// For the 53-bit draw r (u = r * 2^-53) the source emits min(max,
  /// floor((max+1) * u^alpha)), monotone in r: the magnitude reaches m from
  /// the threshold t_m = (m/(max+1))^(1/alpha) * 2^53 on. Write r = t_m *
  /// (1 + e). For alpha >= 1 the real value (max+1) * u^alpha = m * (1 +
  /// e)^alpha lies at least m|e| >= |e| from m. The reference's pow errs
  /// below one ulp and the product by the power of two max+1 is exact, so
  /// it errs below 2^-52 * 2^16 = 2^-36 absolute; the computed threshold
  /// errs below 2^-47 relative (pow, plus the rounding of 1/alpha times
  /// |ln(m/(max+1))| <= 16 ln 2). Outside t_m * (1 -+ 2^-30), rounded
  /// outward to whole draws, the reference's floor therefore agrees with
  /// the comparison against t_m. Bands are at least 2^-30 * t_1 >= 2^7
  /// draws wide. SyntheticStream tabulates every threshold's band;
  /// quant::MaxDrawSample counts sorted max draws against the 2^k and 2^k+1
  /// thresholds.
  [[nodiscard]] Band threshold_band(int m) const noexcept;

 private:
  friend class SyntheticStream;

  CounterRng rng_;
  SyntheticSpec spec_;
  int max_magnitude_;
};

/// Bulk reader of a SyntheticSource: `at(index)` equals `source.at(index)`
/// bit for bit, without a `pow` per value.
///
/// The threshold table. The magnitude of the 53-bit draw r is the number of
/// thresholds t_m, m = 1..max, at or below r (SyntheticSource::
/// threshold_band). A bucket on the top 16 bits of r stores the count at
/// the bucket's start, and two branch-free compares against the next bands
/// finish the count. A draw inside a band, or past more thresholds than two
/// compares reach, falls back to magnitude_for_draw; the fallback is rare
/// except where alpha packs thresholds tighter than a band.
///
/// Clean buckets. A bucket that no band overlaps is clean: every draw r in
/// it lies outside every band, so r >= hi_m exactly when the bucket's start
/// is (no hi_m falls inside the bucket), and the start count is the exact
/// magnitude of every draw in it. Each table entry holds that count in its
/// low 16 bits and sets kDirty when a band overlaps the bucket; only dirty
/// buckets run the compares, the band check and the fallback. A band is
/// about 2^-29 * t_m <= 2^24 draws wide, far narrower than a 2^37-draw
/// bucket, so it touches at most two: a stream with largest magnitude M has
/// at most 2M dirty buckets of 65,536.
///
/// A table costs one `pow` per threshold plus a 256 KiB bucket table. On a
/// 4-core AVX-512 Xeon that is about 34 ns per threshold plus 25 us, and a
/// tabulated draw saves at least 23 ns, so the table pays after roughly
/// 1.5 * max + 1100 draws. Streams shorter than 2 * max + 4096 draws read
/// through `source.at` instead (unsigned Pa 16: below 135,166).
class SyntheticStream {
 public:
  /// `count` is how many values the caller will read; it decides whether
  /// the table pays for itself.
  SyntheticStream(const SyntheticSource& source, std::int64_t count);

  [[nodiscard]] Value at(std::uint64_t index) const noexcept {
    if (!tabulated()) return source_.at(index);
    const std::uint64_t raw = source_.rng_.bits(index);
    const std::int32_t mag = magnitude(raw >> 11);
    // The source's zero gate and sign bit, branch-free: all ones or zero.
    const std::int32_t live =
        -static_cast<std::int32_t>(((raw >> 1) & 0x3FF) >= live_from_);
    const std::int32_t neg = -static_cast<std::int32_t>(raw & sign_bit_);
    return static_cast<Value>(((mag & live) ^ neg) - neg);
  }

  /// Fills `out[i]` with `at(begin + i)` (the index wraps modulo 2^64). At
  /// the AVX-512 tier a tabulated stream draws 16 values per step: one
  /// gather resolves the clean lanes and the dirty ones go to magnitude().
  void read(std::uint64_t begin, std::span<Value> out) const;

  /// Magnitude for the 53-bit draw `r`: equals
  /// `source.magnitude_for_draw(r * 2^-53)` for every r < 2^53.
  [[nodiscard]] std::uint16_t magnitude(std::uint64_t r) const noexcept {
    if (!tabulated()) return source_.magnitude_for_draw(static_cast<double>(r) * 0x1.0p-53);
    const std::uint32_t entry = table_[r >> kBucketShift];
    if ((entry & kDirty) == 0) return static_cast<std::uint16_t>(entry);
    std::uint32_t c = entry & (kDirty - 1);
    c += static_cast<std::uint32_t>(r >= bands_[c + 1].hi);
    c += static_cast<std::uint32_t>(r >= bands_[c + 1].hi);
    if (r >= bands_[c + 1].lo) [[unlikely]] {
      return source_.magnitude_for_draw(static_cast<double>(r) * 0x1.0p-53);
    }
    return static_cast<std::uint16_t>(c);
  }

  [[nodiscard]] bool tabulated() const noexcept { return !table_.empty(); }

 private:
  /// Streams shorter than this plus two draws per threshold use `pow`.
  static constexpr std::int64_t kMinTabulatedCount = 4096;
  static constexpr int kBucketShift = 37;  // 2^16 buckets over r < 2^53
  /// Table entry flag: a guard band overlaps the bucket.
  static constexpr std::uint32_t kDirty = std::uint32_t{1} << 16;

  using Band = SyntheticSource::Band;

  SyntheticSource source_;
  std::uint64_t live_from_ = 0;  ///< smallest zero-gate field that keeps a value
  std::uint64_t sign_bit_ = 0;   ///< 1 when signed: the sign is bit 0 of the draw
  /// Per bucket: thresholds at or below its start, plus kDirty.
  std::vector<std::uint32_t> table_;
  std::vector<Band> bands_;  ///< index 1..max; max+1 is an all-ones sentinel
};

/// Materialize an activation volume (CHW) from a synthetic source.
[[nodiscard]] Tensor make_activation_tensor(const Shape3& shape, const SyntheticSpec& spec,
                                            std::uint64_t seed, std::uint64_t stream);

/// Materialize a weight tensor with `count` elements (flat layout; the
/// caller interprets [Co][Ci/g][Kh][Kw] or [Co][Ci] ordering).
[[nodiscard]] Tensor make_weight_tensor(std::int64_t count, const SyntheticSpec& spec,
                                        std::uint64_t seed, std::uint64_t stream);

/// Stable stream ids so every consumer of a layer's data sees the same
/// virtual tensor.
[[nodiscard]] std::uint64_t activation_stream(std::uint64_t layer_index) noexcept;
[[nodiscard]] std::uint64_t weight_stream(std::uint64_t layer_index) noexcept;

}  // namespace loom::nn
