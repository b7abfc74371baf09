#include "quant/metadata.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace loom::quant {

GroupMetadata GroupMetadata::encode(const nn::SyntheticSource& source,
                                    std::int64_t count, int group_size) {
  LOOM_EXPECTS(count > 0 && group_size > 0);
  const nn::SyntheticStream stream(source, count);
  GroupMetadata md;
  md.group_size_ = group_size;
  const std::int64_t groups = ceil_div(count, group_size);
  md.codes_.reserve(static_cast<std::size_t>(groups));
  for (std::int64_t g = 0; g < groups; ++g) {
    int p = 1;
    const std::int64_t end = std::min<std::int64_t>((g + 1) * group_size, count);
    for (std::int64_t i = g * group_size; i < end; ++i) {
      p = std::max(p, needed_bits_signed(stream.at(static_cast<std::uint64_t>(i))));
    }
    md.codes_.push_back(static_cast<std::uint8_t>(p));
  }
  return md;
}

GroupMetadata GroupMetadata::encode_values(std::span<const Value> values,
                                           int group_size) {
  LOOM_EXPECTS(!values.empty() && group_size > 0);
  GroupMetadata md;
  md.group_size_ = group_size;
  for (std::size_t i = 0; i < values.size();
       i += static_cast<std::size_t>(group_size)) {
    const std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(group_size), values.size() - i);
    int p = 1;
    for (const Value v : values.subspan(i, n)) {
      p = std::max(p, needed_bits_signed(v));
    }
    md.codes_.push_back(static_cast<std::uint8_t>(p));
  }
  return md;
}

int GroupMetadata::group_precision(std::int64_t group) const {
  LOOM_EXPECTS(group >= 0 && group < groups());
  return codes_[static_cast<std::size_t>(group)];
}

std::int64_t GroupMetadata::packed_value_bits() const noexcept {
  std::int64_t bits = 0;
  for (const std::uint8_t code : codes_) {
    bits += static_cast<std::int64_t>(code) * group_size_;
  }
  return bits;
}

double GroupMetadata::mean_precision() const noexcept {
  if (codes_.empty()) return 0.0;
  double acc = 0.0;
  for (const std::uint8_t code : codes_) acc += code;
  return acc / static_cast<double>(codes_.size());
}

FootprintReport weight_footprint(const nn::SyntheticSource& source,
                                 std::int64_t count, int layer_precision,
                                 int group_size) {
  LOOM_EXPECTS(layer_precision >= 1 && layer_precision <= kBasePrecision);
  FootprintReport r;
  r.values = count;
  r.baseline_bits = count * kBasePrecision;
  r.per_layer_bits = count * layer_precision;
  const GroupMetadata md = GroupMetadata::encode(source, count, group_size);
  r.per_group_bits = md.total_bits();
  r.per_layer_ratio = static_cast<double>(r.baseline_bits) /
                      static_cast<double>(r.per_layer_bits);
  r.per_group_ratio = static_cast<double>(r.baseline_bits) /
                      static_cast<double>(r.per_group_bits);
  return r;
}

}  // namespace loom::quant
