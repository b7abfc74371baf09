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
// into a MaxDrawSample (one positive and one negative max draw per group).
// Every bisection step then costs about one pow per sampled group instead
// of a pow per sampled value: a signed group-16 calibration takes ~8 ms and
// an unsigned group-256 one ~40 ms, where the value scan took ~0.1 s and
// ~0.8 s.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/synthetic.hpp"

namespace loom::quant {

/// Max-draw reduction of a grouped value sample. Per group it keeps the
/// largest uniform draw behind a positive value and, for signed samples,
/// the largest behind a negative one (needed_bits_signed is asymmetric:
/// 1 needs 2 bits, -1 needs 1). A zero-gated value draws -1, magnitude 0.
/// From these draws mean_precision() reproduces, bit for bit, the mean of
/// the value scan in group_precision.hpp for any alpha.
class MaxDrawSample {
 public:
  explicit MaxDrawSample(bool is_signed) : is_signed_(is_signed) {}

  void reserve(std::size_t groups);

  /// Starts a new group holding no live value yet.
  void open_group();

  /// Folds one draw into the newest group (branch-free: the sign is random).
  void add(const nn::SyntheticSource::Draw& d) noexcept {
    double& slot = groups_.back()[d.negative ? 1 : 0];
    slot = std::max(slot, d.u);
  }

  /// Mean effective precision of the groups under `src`'s spec, which must
  /// share the sample's signedness (alpha and precision may differ).
  /// Signed groups take max(1, nbs(pos), nbs(-neg)) of their largest
  /// magnitudes; unsigned groups take needed_bits_unsigned of the largest
  /// magnitude, which shares its leading bit with the group's OR.
  [[nodiscard]] double mean_precision(const nn::SyntheticSource& src) const;

 private:
  bool is_signed_;
  /// Per group: max draw behind a positive value, then behind a negative
  /// one; -1 when there is none.
  std::vector<std::array<double, 2>> groups_;
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
