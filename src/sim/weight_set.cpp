#include "sim/weight_set.hpp"

#include <utility>

#include "common/error.hpp"

namespace loom::sim {

WeightSet::WeightSet(std::vector<nn::Tensor> tensors)
    : tensors_(std::move(tensors)) {}

WeightSet::WeightSet(const nn::Network& net, WeightSet flat)
    : tensors_(std::move(flat.tensors_)) {
  auto prepared = std::make_shared<std::vector<std::optional<PreparedConv>>>();
  prepared->reserve(tensors_.size());
  for (const nn::Layer& layer : net.layers()) {
    if (!layer.has_weights()) continue;
    const std::size_t i = prepared->size();
    LOOM_EXPECTS(i < tensors_.size());
    auto& entry = prepared->emplace_back();
    if (layer.kind == nn::LayerKind::kConv) {
      entry = prepare_conv(layer, tensors_[i], layer.weight_precision);
    }
  }
  LOOM_EXPECTS(prepared->size() == tensors_.size());
  prepared_ = std::move(prepared);
}

const PreparedConv* WeightSet::prepared(std::size_t i) const {
  LOOM_EXPECTS(i < tensors_.size());
  if (!prepared_ || !(*prepared_)[i]) return nullptr;
  return &*(*prepared_)[i];
}

}  // namespace loom::sim
