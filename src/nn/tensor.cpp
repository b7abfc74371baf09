#include "nn/tensor.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace loom::nn {

Shape::Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {
  for (const auto d : dims_) LOOM_EXPECTS(d >= 0);
}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  for (const auto d : dims_) LOOM_EXPECTS(d >= 0);
}

std::int64_t Shape::dim(int i) const {
  LOOM_EXPECTS(i >= 0 && i < rank());
  return dims_[static_cast<std::size_t>(i)];
}

std::int64_t Shape::elements() const noexcept {
  std::int64_t n = 1;
  for (const auto d : dims_) n *= d;
  return dims_.empty() ? 0 : n;
}

std::string Shape::to_string() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) out << 'x';
    out << dims_[i];
  }
  out << ']';
  return out.str();
}

Tensor::Tensor(Shape shape, Value fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.elements()), fill) {}

std::int64_t Tensor::offset(std::span<const std::int64_t> idx) const {
  LOOM_EXPECTS(static_cast<int>(idx.size()) == shape_.rank());
  std::int64_t off = 0;
  for (int i = 0; i < shape_.rank(); ++i) {
    LOOM_EXPECTS(idx[static_cast<std::size_t>(i)] >= 0 &&
                 idx[static_cast<std::size_t>(i)] < shape_.dim(i));
    off = off * shape_.dim(i) + idx[static_cast<std::size_t>(i)];
  }
  return off;
}

Value& Tensor::at(std::span<const std::int64_t> idx) {
  return data_[static_cast<std::size_t>(offset(idx))];
}

Value Tensor::at(std::span<const std::int64_t> idx) const {
  return data_[static_cast<std::size_t>(offset(idx))];
}

Value& Tensor::at3(std::int64_t c, std::int64_t h, std::int64_t w) {
  const std::int64_t idx[] = {c, h, w};
  return at(idx);
}

Value Tensor::at3(std::int64_t c, std::int64_t h, std::int64_t w) const {
  const std::int64_t idx[] = {c, h, w};
  return at(idx);
}

WideTensor::WideTensor(Shape shape, Wide fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.elements()), fill) {}

Wide& WideTensor::at3(std::int64_t c, std::int64_t h, std::int64_t w) {
  LOOM_EXPECTS(shape_.rank() == 3);
  const std::int64_t off = (c * shape_.dim(1) + h) * shape_.dim(2) + w;
  return data_[static_cast<std::size_t>(off)];
}

Wide WideTensor::at3(std::int64_t c, std::int64_t h, std::int64_t w) const {
  LOOM_EXPECTS(shape_.rank() == 3);
  const std::int64_t off = (c * shape_.dim(1) + h) * shape_.dim(2) + w;
  return data_[static_cast<std::size_t>(off)];
}

}  // namespace loom::nn
