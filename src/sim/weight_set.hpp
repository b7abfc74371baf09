// A model's weights as the functional engine reads them. Loom keeps its
// weights in weight memory already laid out as the bit-serial datapath
// reads them, prepared offline once; the host engine does the same. A
// WeightSet holds one flat tensor per weighted layer — what nn::reference,
// the scalar oracle and snapshots read — and, once built against a
// network, each conv layer's weights prepared by prepare_conv in the
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
#include <vector>

#include "nn/network.hpp"
#include "nn/tensor.hpp"
#include "sim/gemm_engine.hpp"

namespace loom::sim {

class WeightSet {
 public:
  WeightSet() = default;

  /// Flat tensors only, one per weighted layer in layer order: the engine
  /// prepares each conv layer per call.
  explicit WeightSet(std::vector<nn::Tensor> tensors);

  /// `flat`'s tensors (moved, not copied) with every conv layer of `net`
  /// prepared at its profile weight precision. Requires one tensor per
  /// weighted layer of `net`, each of the layer's weight_count().
  WeightSet(const nn::Network& net, WeightSet flat);

  [[nodiscard]] std::size_t size() const noexcept { return tensors_.size(); }
  [[nodiscard]] const nn::Tensor& operator[](std::size_t i) const {
    return tensors_[i];
  }
  [[nodiscard]] auto begin() const noexcept { return tensors_.begin(); }
  [[nodiscard]] auto end() const noexcept { return tensors_.end(); }
  [[nodiscard]] std::span<const nn::Tensor> tensors() const noexcept {
    return tensors_;
  }

  /// The prepared weights of the i-th weighted layer; null for an FC layer
  /// or a set built without a network.
  [[nodiscard]] const PreparedConv* prepared(std::size_t i) const;

  friend bool operator==(const WeightSet& a, const WeightSet& b) {
    return a.tensors_ == b.tensors_;
  }

 private:
  std::vector<nn::Tensor> tensors_;
  /// One entry per tensor (empty for FC layers); null when unprepared.
  std::shared_ptr<const std::vector<std::optional<PreparedConv>>> prepared_;
};

}  // namespace loom::sim
