// Dense row-major integer tensors used by the functional (golden) execution
// path and the synthetic workload generators. The simulators themselves
// mostly stream values and never materialize full weight tensors.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/bitops.hpp"

namespace loom::nn {

/// Tensor shape: up to a handful of dimensions, row-major layout.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);
  explicit Shape(std::vector<std::int64_t> dims);

  [[nodiscard]] int rank() const noexcept { return static_cast<int>(dims_.size()); }
  [[nodiscard]] std::int64_t dim(int i) const;
  [[nodiscard]] std::int64_t elements() const noexcept;
  [[nodiscard]] const std::vector<std::int64_t>& dims() const noexcept { return dims_; }
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Shape&, const Shape&) = default;

 private:
  std::vector<std::int64_t> dims_;
};

/// Dense tensor of 16-bit fixed-point values (the paper's base precision).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, Value fill = 0);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::int64_t elements() const noexcept { return static_cast<std::int64_t>(data_.size()); }

  [[nodiscard]] Value& at(std::span<const std::int64_t> idx);
  [[nodiscard]] Value at(std::span<const std::int64_t> idx) const;

  /// Convenience accessors for the common ranks.
  [[nodiscard]] Value& at3(std::int64_t c, std::int64_t h, std::int64_t w);
  [[nodiscard]] Value at3(std::int64_t c, std::int64_t h, std::int64_t w) const;

  [[nodiscard]] std::span<Value> data() noexcept { return data_; }
  [[nodiscard]] std::span<const Value> data() const noexcept { return data_; }

  /// Flat element access (row-major order).
  [[nodiscard]] Value flat(std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }
  void set_flat(std::int64_t i, Value v) { data_[static_cast<std::size_t>(i)] = v; }

  /// Exact equality: same shape and byte-identical elements. The batched
  /// execution paths are pinned against solo runs with this.
  friend bool operator==(const Tensor&, const Tensor&) = default;

 private:
  [[nodiscard]] std::int64_t offset(std::span<const std::int64_t> idx) const;

  Shape shape_;
  std::vector<Value> data_;
};

/// Wide-accumulator tensor for exact inner products before requantization.
class WideTensor {
 public:
  WideTensor() = default;
  explicit WideTensor(Shape shape, Wide fill = 0);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::int64_t elements() const noexcept { return static_cast<std::int64_t>(data_.size()); }
  [[nodiscard]] Wide flat(std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }
  void set_flat(std::int64_t i, Wide v) { data_[static_cast<std::size_t>(i)] = v; }
  [[nodiscard]] Wide& at3(std::int64_t c, std::int64_t h, std::int64_t w);
  [[nodiscard]] Wide at3(std::int64_t c, std::int64_t h, std::int64_t w) const;
  [[nodiscard]] std::span<Wide> data() noexcept { return data_; }
  [[nodiscard]] std::span<const Wide> data() const noexcept { return data_; }

  /// Exact equality: same shape and byte-identical accumulators.
  friend bool operator==(const WideTensor&, const WideTensor&) = default;

 private:
  Shape shape_;
  std::vector<Wide> data_;
};

}  // namespace loom::nn
