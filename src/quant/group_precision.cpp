#include "quant/group_precision.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace loom::quant {

namespace {

template <bool kSigned>
GroupPrecisionStats stream_stats(const nn::SyntheticSource& source,
                                 std::int64_t count, int group_size,
                                 int sample_stride) {
  LOOM_EXPECTS(count > 0 && group_size > 0 && sample_stride >= 1);
  const nn::SyntheticStream stream(source, count / sample_stride);
  GroupPrecisionStats stats;
  double sum = 0.0;
  const std::int64_t total_groups = ceil_div(count, group_size);
  for (std::int64_t g = 0; g < total_groups; g += sample_stride) {
    const std::int64_t begin = g * group_size;
    const std::int64_t end = std::min<std::int64_t>(begin + group_size, count);
    int p = 1;
    if constexpr (kSigned) {
      for (std::int64_t i = begin; i < end; ++i) {
        p = std::max(p, needed_bits_signed(stream.at(static_cast<std::uint64_t>(i))));
      }
    } else {
      std::uint32_t ored = 0;
      for (std::int64_t i = begin; i < end; ++i) {
        ored |= static_cast<std::uint16_t>(stream.at(static_cast<std::uint64_t>(i)));
      }
      p = needed_bits_unsigned(ored);
    }
    sum += p;
    ++stats.groups;
  }
  stats.mean = stats.groups ? sum / static_cast<double>(stats.groups) : 0.0;
  return stats;
}

}  // namespace

GroupPrecisionStats weight_group_stats(const nn::SyntheticSource& source,
                                       std::int64_t count, int group_size,
                                       int sample_stride) {
  return stream_stats<true>(source, count, group_size, sample_stride);
}

GroupPrecisionStats activation_group_stats(const nn::SyntheticSource& source,
                                           std::int64_t count, int group_size,
                                           int sample_stride) {
  return stream_stats<false>(source, count, group_size, sample_stride);
}

}  // namespace loom::quant
