// Distribution calibration: choose the concentration exponent `alpha` of a
// SyntheticSpec so the mean per-group effective precision of the generated
// values hits a target. This is how the synthetic workloads are made to
// reproduce the published precision behaviour (Table 3's effective weight
// precisions and the dynamic activation trims implied by Table 2).
//
// Mean group precision is monotonically non-increasing in alpha (larger
// alpha concentrates magnitudes toward zero), so a bisection on log(alpha)
// against a deterministic Monte-Carlo estimate converges quickly.
//
// Cost: the uniform draws behind a sample do not depend on alpha, and the
// magnitude map is monotone in the draw, so the sample is streamed once
// into a MaxDrawSample (one positive and one negative max draw per group,
// sorted once). A group's precision is a step function of its max draws,
// so every bisection step counts the sorted draws past at most 32
// power-of-two thresholds: about 32 pows and binary searches, whatever the
// sample size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/synthetic.hpp"

namespace loom::quant {

/// Max-draw reduction of a grouped value sample, immutable once built. Per
/// group it holds the largest draw behind a positive value and, for signed
/// samples, the largest behind a negative one (needed_bits_signed is
/// asymmetric: 1 needs 2 bits, -1 needs 1). From these draws
/// mean_precision() reproduces, bit for bit, the mean of the value scan in
/// group_precision.hpp for any alpha.
///
/// The method. Write M(r) for the magnitude of draw r. An unsigned group's
/// precision is 1 + #{k >= 1 : M(pos) >= 2^k}; a signed group's,
/// max(1, nbs(M(pos)), nbs(-M(neg))), is 1 + #{k >= 0 : M(pos) >= 2^k or
/// M(neg) >= 2^k + 1}. The constructor splits the signed groups: where
/// pos >= neg the positive draw decides alone against the 2^k thresholds
/// (M(pos) >= M(neg)); elsewhere the negative draw decides against 2^k + 1,
/// except that a group with M(neg) exactly 2^k still counts when M(pos)
/// reaches 2^k too. Those groups are the sorted negative draws in
/// [t(2^k), t(2^k + 1)). Each count is a binary search of sorted draws
/// against a threshold's guard band (nn::SyntheticSource::threshold_band);
/// only draws inside a band ask the source's pow.
class MaxDrawSample {
 public:
  using Group = nn::SyntheticSource::MaxDraws;

  /// Sorts the groups' max draws; `groups` is not kept.
  MaxDrawSample(bool is_signed, std::span<const Group> groups);

  /// Mean effective precision of the groups under `src`'s spec, which must
  /// share the sample's signedness (alpha and precision may differ).
  /// Signed groups take max(1, nbs(pos), nbs(-neg)) of their largest
  /// magnitudes; unsigned groups take needed_bits_unsigned of the largest
  /// magnitude, which shares its leading bit with the group's OR.
  [[nodiscard]] double mean_precision(const nn::SyntheticSource& src) const;

 private:
  bool is_signed_;
  std::size_t group_count_;
  /// Unsigned: every group's max draw. Signed: the positive max draw of the
  /// groups with pos >= neg. Sorted.
  std::vector<std::uint64_t> pos_led_;
  /// Signed: the groups with neg > pos, sorted by their negative max draw.
  std::vector<Group> neg_led_;
};

struct CalibrationOptions {
  int group_size = 16;          ///< group over which effective precision is taken
  std::int64_t sample_groups = 16384;  ///< Monte-Carlo sample size
  double tolerance = 0.04;      ///< acceptable |measured - target| in bits
  int max_iterations = 48;
  std::uint64_t seed = 0xCA11B8A7E5EEDull;
};

/// Measured mean group precision for a given spec (MC estimate): a full
/// value scan of the sample calibrate_to_group_precision bisects on.
[[nodiscard]] double measure_mean_group_precision(const nn::SyntheticSpec& spec,
                                                  const CalibrationOptions& opts);

/// Find alpha such that the mean per-group precision of values with profile
/// precision `spec.precision` is ~`target_mean_precision`. Returns the
/// calibrated spec (alpha filled in). Targets above the achievable range
/// clamp to alpha = 1; targets at/below 1 bit clamp to the maximum alpha.
[[nodiscard]] nn::SyntheticSpec calibrate_to_group_precision(
    nn::SyntheticSpec spec, double target_mean_precision,
    const CalibrationOptions& opts = {});

/// Process-wide memoization of calibrations, keyed by the exact arguments
/// (doubles by their bit patterns); the zoo networks share many
/// (precision, target) pairs.
[[nodiscard]] const nn::SyntheticSpec& calibrated_spec_cached(
    int precision, bool is_signed, double zero_fraction, int group_size,
    double target_mean_precision);

}  // namespace loom::quant
