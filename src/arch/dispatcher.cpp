#include "arch/dispatcher.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace loom::arch {

Dispatcher::Dispatcher(int lanes) : lanes_(lanes) {
  LOOM_EXPECTS(lanes >= 1 && lanes <= 32);
}

void Dispatcher::stream_activations(
    std::span<const std::span<const Value>> columns, int profile_precision,
    bool dynamic, ActivationStream& out) {
  LOOM_EXPECTS(profile_precision >= 1 && profile_precision <= kBasePrecision);
  out.columns = static_cast<int>(columns.size());

  int precision = profile_precision;
  if (dynamic) {
    // The detector sees the whole fetch group across columns.
    precision = std::min(detector_.detect(columns), profile_precision);
  }
  out.precision = precision;

  out.bits.assign(static_cast<std::size_t>(precision) *
                      static_cast<std::size_t>(out.columns),
                  0);
  for (int step = 0; step < precision; ++step) {
    const int bit = precision - 1 - step;  // MSB first
    for (int col = 0; col < out.columns; ++col) {
      const auto& values = columns[static_cast<std::size_t>(col)];
      std::uint32_t packed = 0;
      const int n = std::min<int>(lanes_, static_cast<int>(values.size()));
      for (int lane = 0; lane < n; ++lane) {
        packed |= static_cast<std::uint32_t>(
                      bit_of(values[static_cast<std::size_t>(lane)], bit))
                  << lane;
      }
      out.bits[static_cast<std::size_t>(step) *
                   static_cast<std::size_t>(out.columns) +
               static_cast<std::size_t>(col)] = packed;
      act_bits_ += static_cast<std::uint64_t>(n);
    }
  }
}

void Dispatcher::stream_weights(std::span<const std::span<const Value>> rows,
                                int precision, WeightStream& out) {
  LOOM_EXPECTS(precision >= 1 && precision <= kBasePrecision);
  out.precision = precision;
  out.rows = static_cast<int>(rows.size());
  out.bits.assign(static_cast<std::size_t>(precision) *
                      static_cast<std::size_t>(out.rows),
                  0);
  for (int bit = 0; bit < precision; ++bit) {  // LSB first
    for (int row = 0; row < out.rows; ++row) {
      const auto& values = rows[static_cast<std::size_t>(row)];
      std::uint32_t packed = 0;
      const int n = std::min<int>(lanes_, static_cast<int>(values.size()));
      for (int lane = 0; lane < n; ++lane) {
        packed |= static_cast<std::uint32_t>(
                      bit_of(values[static_cast<std::size_t>(lane)], bit))
                  << lane;
      }
      out.bits[static_cast<std::size_t>(bit) * static_cast<std::size_t>(out.rows) +
               static_cast<std::size_t>(row)] = packed;
      weight_bits_ += static_cast<std::uint64_t>(n);
    }
  }
}

ActivationStream Dispatcher::stream_activations(
    const std::vector<std::vector<Value>>& columns, int profile_precision,
    bool dynamic) {
  std::vector<std::span<const Value>> spans(columns.begin(), columns.end());
  ActivationStream out;
  stream_activations(spans, profile_precision, dynamic, out);
  return out;
}

WeightStream Dispatcher::stream_weights(
    const std::vector<std::vector<Value>>& rows, int precision) {
  std::vector<std::span<const Value>> spans(rows.begin(), rows.end());
  WeightStream out;
  stream_weights(spans, precision, out);
  return out;
}

}  // namespace loom::arch
