// Model registry for the inference server: immutable, shareable models —
// a profiled network plus materialized weight tensors — registered once and
// referenced by every session and batch that serves them. Weight tensors,
// their prepared conv layers (sim::WeightSet; a restored model's come from
// snapshot decode) and the calibrated input distribution are built at
// registration (the calibration itself goes through the process-wide
// quant::calibrated_spec_cached memo: one group-256 sorted max-draw
// bisection, a few milliseconds, so weight synthesis dominates
// registration), so concurrent requests never rebuild per-model state.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/network.hpp"
#include "nn/synthetic.hpp"
#include "nn/tensor.hpp"
#include "quant/profiles.hpp"
#include "sim/weight_set.hpp"

namespace loom::serve {

/// An immutable inference model. The (network, profile) pair is the
/// batching key: the server only coalesces requests that share a Model.
struct Model {
  std::string name;
  nn::Network net;
  quant::PrecisionProfile profile;
  /// One materialized weight tensor per weighted layer, in layer order,
  /// and every conv layer's weights prepared for the gemm kernel, built
  /// against `net` (what FunctionalLoomEngine::run_network* consumes).
  /// Snapshots carry only the tensors; decode prepares them again.
  sim::WeightSet weights;
  /// Distribution the first layer's input activations are drawn from —
  /// calibrated to the first conv layer's activation trim over generic
  /// 256-value groups, via the shared calibrated_spec_cached memo.
  nn::SyntheticSpec input_spec;

  /// Input activation volume (the first layer's input shape).
  [[nodiscard]] nn::Shape3 input_shape() const { return net.layer(0).in; }

  /// Deterministic synthetic request input drawn from `input_spec`.
  /// Distinct `stream` values give independent inputs.
  [[nodiscard]] nn::Tensor make_input(std::uint64_t seed,
                                      std::uint64_t stream) const;
};

/// Thread-safe name -> Model map. Registration materializes and prepares
/// weights once; lookups hand out shared ownership, so models outlive
/// server shutdown and in-flight batches without copies.
class ModelRegistry {
 public:
  /// Register a model with explicit weights (one tensor per weighted
  /// layer). `net` must already carry profile precisions
  /// (quant::apply_profile). Throws ConfigError on duplicate names, a
  /// network whose layers do not chain, or a weight-count mismatch.
  std::shared_ptr<const Model> add(std::string name, nn::Network net,
                                   quant::PrecisionProfile profile,
                                   std::vector<nn::Tensor> weights);

  /// Register a model with synthetic weights drawn per weighted layer from
  /// a distribution calibrated to the layer's profile weight precision.
  /// Deterministic in (net, profile, seed).
  std::shared_ptr<const Model> add_synthetic(std::string name, nn::Network net,
                                             quant::PrecisionProfile profile,
                                             std::uint64_t seed);

  /// Register a fully materialized model — the snapshot-restore path:
  /// `model.input_spec` is trusted (no recalibration) and the prepared conv
  /// weights are kept as they are (shared, not rebuilt), so a registry built
  /// from load_snapshot serves byte-identical outputs to the one that saved
  /// it. Throws ConfigError on duplicate names and on a weight set that does
  /// not fit `model.net` (WeightSet::error_for: a network whose layers do
  /// not chain, a weight-count mismatch, or planes built for another Pw).
  std::shared_ptr<const Model> add(Model model);

  /// Look up a registered model; throws ConfigError when unknown.
  [[nodiscard]] std::shared_ptr<const Model> find(
      const std::string& name) const;

  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::shared_ptr<const Model> insert(std::shared_ptr<Model> model);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const Model>> models_;
};

}  // namespace loom::serve
