// Streaming per-group weight precision statistics (Lascorz et al. [10],
// paper §4.6 and Table 3). Weight tensors at VGG scale are never
// materialized; statistics are computed by streaming a SyntheticSource.
#pragma once

#include <cstdint>

#include "nn/synthetic.hpp"

namespace loom::quant {

struct GroupPrecisionStats {
  double mean = 0.0;            ///< average effective precision over groups
  std::uint64_t groups = 0;     ///< number of groups measured
};

/// Effective precision statistics over consecutive groups of `group_size`
/// values streamed from `source` (weights: signed two's complement).
/// `count` values are examined; `sample_stride` > 1 measures every k-th
/// group only (deterministic subsampling for very large tensors).
[[nodiscard]] GroupPrecisionStats weight_group_stats(const nn::SyntheticSource& source,
                                                     std::int64_t count,
                                                     int group_size,
                                                     int sample_stride = 1);

/// Same statistic over unsigned activation values.
[[nodiscard]] GroupPrecisionStats activation_group_stats(const nn::SyntheticSource& source,
                                                         std::int64_t count,
                                                         int group_size,
                                                         int sample_stride = 1);

}  // namespace loom::quant
