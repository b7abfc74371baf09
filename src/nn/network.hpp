// A network is an ordered list of layers with chained shape inference plus
// the bookkeeping the simulators need (weighted layer indices, precision
// groups). Branching topologies (inception modules) are flattened: each
// branch convolution appears as its own layer whose input volume is the
// module input, which is exactly what the cycle model needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace loom::nn {

class Network {
 public:
  Network(std::string name, Shape3 input);

  /// Append a conv layer consuming the current output volume.
  Layer& add_conv(const std::string& name, int out_channels, int kernel,
                  int stride = 1, int pad = 0, int groups = 1);

  /// Append a conv layer with an explicit input volume (inception branches
  /// that all read the same module input). Does not advance the current
  /// volume; call `set_current` to continue from the concatenated output.
  Layer& add_conv_branch(const std::string& name, Shape3 in, int out_channels,
                         int kernel, int stride = 1, int pad = 0);

  Layer& add_fc(const std::string& name, int out_features);
  Layer& add_pool(const std::string& name, PoolKind pool, int kernel,
                  int stride, int pad = 0);

  /// Override the current activation volume (after a flattened module).
  void set_current(Shape3 v) { current_ = v; }
  [[nodiscard]] Shape3 current() const noexcept { return current_; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Shape3 input() const noexcept { return input_; }

  [[nodiscard]] const std::vector<Layer>& layers() const noexcept { return layers_; }
  [[nodiscard]] std::vector<Layer>& layers() noexcept { return layers_; }
  [[nodiscard]] std::size_t size() const noexcept { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const;

  /// Index of the first layer whose input volume is not its producer's
  /// output (layer 0: the network input), or size() when every layer
  /// chains. Flattened branching topologies (GoogLeNet) break the chain, so
  /// they are analytic-only: the functional engine cannot execute them.
  [[nodiscard]] std::size_t first_chain_break() const noexcept;

  /// Why the functional engine cannot execute this network — the first
  /// layer that breaks the chain or fails nn::geometry_consistent — or
  /// empty when it can. Snapshot decode, ModelRegistry::add and engine entry
  /// all reject a network on this one check.
  [[nodiscard]] std::string execution_error() const;

  /// Indices of conv layers, in order.
  [[nodiscard]] std::vector<std::size_t> conv_indices() const;

  /// Total MACs over conv / fc / all weighted layers.
  [[nodiscard]] std::int64_t conv_macs() const;
  [[nodiscard]] std::int64_t fc_macs() const;
  [[nodiscard]] std::int64_t total_macs() const;

  /// Total weight count over all weighted layers.
  [[nodiscard]] std::int64_t total_weights() const;

  /// Precision at which layer `i`'s output activations are stored: the
  /// next conv consumer's profile Pa; an FC consumer, or none, stores at the
  /// base precision (16).
  [[nodiscard]] int output_precision(std::size_t i) const;

 private:
  std::string name_;
  Shape3 input_;
  Shape3 current_;
  std::vector<Layer> layers_;
};

}  // namespace loom::nn
