#include "sim/weight_set.hpp"

#include <utility>

#include "common/error.hpp"

namespace loom::sim {

std::string weights_error(const nn::Network& net,
                          std::span<const nn::Tensor> tensors) {
  if (std::string why = net.execution_error(); !why.empty()) return why;
  std::size_t wi = 0;
  const nn::Layer* last = nullptr;
  for (const nn::Layer& l : net.layers()) {
    if (!l.has_weights()) continue;
    if (wi == tensors.size()) {
      return "layer '" + l.name + "' has no weight tensor (" +
             std::to_string(tensors.size()) + " given)";
    }
    if (tensors[wi].elements() != l.weight_count()) {
      return "layer '" + l.name + "': weight tensor " + std::to_string(wi) +
             " has " + std::to_string(tensors[wi].elements()) +
             " values, needs " + std::to_string(l.weight_count());
    }
    last = &l;
    ++wi;
  }
  if (wi != tensors.size()) {
    return std::to_string(tensors.size()) + " weight tensors for " +
           std::to_string(wi) + " weighted layers" +
           (last != nullptr ? ", the last '" + last->name + "'" : "");
  }
  return {};
}

WeightSet::WeightSet(const nn::Network& net, std::vector<nn::Tensor> tensors)
    : tensors_(std::move(tensors)) {
  if (const std::string why = weights_error(net, tensors_); !why.empty()) {
    throw ConfigError("network '" + net.name() + "': " + why);
  }
  auto prepared = std::make_shared<std::vector<std::optional<PreparedConv>>>();
  prepared->reserve(tensors_.size());
  for (const nn::Layer& layer : net.layers()) {
    if (!layer.has_weights()) continue;
    const std::size_t i = prepared->size();
    auto& entry = prepared->emplace_back();
    if (layer.kind == nn::LayerKind::kConv) {
      entry = prepare_conv(layer, tensors_[i], layer.weight_precision);
    }
  }
  prepared_ = std::move(prepared);
}

const PreparedConv* WeightSet::prepared(std::size_t i) const {
  LOOM_EXPECTS(i < tensors_.size());
  const std::optional<PreparedConv>& entry = (*prepared_)[i];
  return entry ? &*entry : nullptr;
}

std::string WeightSet::error_for(const nn::Network& net) const {
  if (std::string why = weights_error(net, tensors_); !why.empty()) return why;
  std::size_t wi = 0;
  for (const nn::Layer& l : net.layers()) {
    if (!l.has_weights()) continue;
    const PreparedConv* planes = prepared(wi++);
    if (l.kind == nn::LayerKind::kConv &&
        (planes == nullptr || !planes->fits(l, l.weight_precision))) {
      return "layer '" + l.name + "': prepared weights do not fit the layer";
    }
  }
  return {};
}

}  // namespace loom::sim
