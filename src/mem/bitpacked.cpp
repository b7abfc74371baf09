#include "mem/bitpacked.hpp"

#include "common/error.hpp"

namespace loom::mem {

std::int64_t packed_bits(std::int64_t count, int precision, int row_bits) {
  LOOM_EXPECTS(count >= 0 && precision >= 1 && precision <= kBasePrecision);
  LOOM_EXPECTS(row_bits >= 1);
  // Bit-plane layout: each of the `precision` planes occupies
  // ceil(count / row_bits) rows of the memory interface.
  const std::int64_t rows_per_plane = ceil_div(count, row_bits);
  return rows_per_plane * row_bits * precision;
}

std::int64_t parallel_bits(std::int64_t count, int row_bits) {
  LOOM_EXPECTS(count >= 0 && row_bits >= 1);
  const std::int64_t values_per_row = row_bits / kBasePrecision;
  LOOM_EXPECTS(values_per_row >= 1);
  return ceil_div(count, values_per_row) * row_bits;
}

}  // namespace loom::mem
