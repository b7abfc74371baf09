// A model's weights as the functional engine reads them. Loom keeps its
// weights in weight memory already laid out as the bit-serial datapath
// reads them, prepared offline once; the host engine does the same. A
// WeightSet is always built against its network: it holds one flat tensor
// per weighted layer — what nn::reference, the scalar oracle and snapshots
// read — and every conv layer's weights prepared by prepare_conv in the
// operand layout the gemm kernel runs at this process's SIMD tier.
//
// The set is immutable: the prepared planes are a pure function of the
// flat tensors and the network, shared (not copied) by every copy of the
// set, every engine and every server worker that reads it. They are
// derived data, never serialized and never compared: two sets are equal
// when their flat tensors are.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "nn/tensor.hpp"
#include "sim/gemm_engine.hpp"

namespace loom::sim {

/// Why `tensors` cannot be `net`'s weights, or "" when they can: the
/// network must run (Network::execution_error) and take one tensor per
/// weighted layer, in layer order, each of the layer's weight_count()
/// values. The one weights-fit-network check: WeightSet, the model
/// registry and snapshot decode all apply it.
[[nodiscard]] std::string weights_error(const nn::Network& net,
                                        std::span<const nn::Tensor> tensors);

class WeightSet {
 public:
  /// `tensors` (one per weighted layer of `net`, moved, not copied) with
  /// every conv layer prepared at its profile weight precision. Throws
  /// ConfigError, naming the layer, when weights_error finds a fault.
  WeightSet(const nn::Network& net, std::vector<nn::Tensor> tensors);

  [[nodiscard]] std::size_t size() const noexcept { return tensors_.size(); }
  [[nodiscard]] const nn::Tensor& operator[](std::size_t i) const {
    return tensors_[i];
  }
  [[nodiscard]] auto begin() const noexcept { return tensors_.begin(); }
  [[nodiscard]] auto end() const noexcept { return tensors_.end(); }
  [[nodiscard]] std::span<const nn::Tensor> tensors() const noexcept {
    return tensors_;
  }

  /// The prepared weights of the i-th weighted layer; null for an FC layer.
  [[nodiscard]] const PreparedConv* prepared(std::size_t i) const;

  /// Why this set cannot run `net`, or "": weights_error, or a conv layer
  /// whose prepared planes do not fit it (a set built for another Pw).
  [[nodiscard]] std::string error_for(const nn::Network& net) const;

  friend bool operator==(const WeightSet& a, const WeightSet& b) {
    return a.tensors_ == b.tensors_;
  }

 private:
  std::vector<nn::Tensor> tensors_;
  /// One entry per tensor, empty for FC layers.
  std::shared_ptr<const std::vector<std::optional<PreparedConv>>> prepared_;
};

}  // namespace loom::sim
