#include "serve/model_registry.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "quant/calibration.hpp"

namespace loom::serve {

namespace {

/// The input distribution of the network's first weighted layer, calibrated
/// to its activation trim over generic 256-value groups through the
/// process-wide calibrated_spec_cached memo.
nn::SyntheticSpec input_spec_for(const nn::Network& net,
                                 const quant::PrecisionProfile& profile) {
  for (const auto& l : net.layers()) {
    if (l.kind == nn::LayerKind::kConv) {
      const double target = std::max(
          1.0, static_cast<double>(l.act_precision) - profile.dynamic_act_trim);
      return quant::calibrated_spec_cached(l.act_precision, /*is_signed=*/false,
                                           /*zero_fraction=*/0.45,
                                           /*group_size=*/256, target);
    }
  }
  // FC-only networks stream full-precision signed activations.
  return nn::SyntheticSpec{.precision = kBasePrecision, .alpha = 3.0,
                           .is_signed = true};
}

}  // namespace

nn::Tensor Model::make_input(std::uint64_t seed, std::uint64_t stream) const {
  return nn::make_activation_tensor(input_shape(), input_spec, seed, stream);
}

std::shared_ptr<const Model> ModelRegistry::add(
    std::string name, nn::Network net, quant::PrecisionProfile profile,
    std::vector<nn::Tensor> weights) {
  // Checked before preparing and calibrating; add(Model) checks again, in
  // O(layers).
  if (const std::string why = sim::weights_error(net, weights); !why.empty()) {
    throw ConfigError("model '" + name + "': " + why);
  }
  sim::WeightSet set(net, std::move(weights));
  const nn::SyntheticSpec input_spec = input_spec_for(net, profile);
  return add(Model{std::move(name), std::move(net), std::move(profile),
                   std::move(set), input_spec});
}

std::shared_ptr<const Model> ModelRegistry::add(Model model) {
  if (const std::string why = model.weights.error_for(model.net); !why.empty()) {
    throw ConfigError("model '" + model.name + "': " + why);
  }
  return insert(std::make_shared<Model>(std::move(model)));
}

std::shared_ptr<const Model> ModelRegistry::add_synthetic(
    std::string name, nn::Network net, quant::PrecisionProfile profile,
    std::uint64_t seed) {
  std::vector<nn::Tensor> weights;
  std::uint64_t layer_index = 0;
  for (const auto& l : net.layers()) {
    if (l.has_weights()) {
      const nn::SyntheticSpec spec{.precision = l.weight_precision,
                                   .alpha = 3.0,
                                   .is_signed = true};
      weights.push_back(nn::make_weight_tensor(
          l.weight_count(), spec, seed, nn::weight_stream(layer_index)));
    }
    ++layer_index;
  }
  return add(std::move(name), std::move(net), std::move(profile),
             std::move(weights));
}

std::shared_ptr<const Model> ModelRegistry::find(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(name);
  if (it == models_.end()) {
    throw ConfigError("unknown model '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> ModelRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, model] : models_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::shared_ptr<const Model> ModelRegistry::insert(
    std::shared_ptr<Model> model) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = models_.emplace(model->name, model);
  if (!inserted) {
    throw ConfigError("model '" + model->name + "' already registered");
  }
  return it->second;
}

}  // namespace loom::serve
