#include "nn/network.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace loom::nn {

Network::Network(std::string name, Shape3 input)
    : name_(std::move(name)), input_(input), current_(input) {
  LOOM_EXPECTS(input.c > 0 && input.h > 0 && input.w > 0);
}

Layer& Network::add_conv(const std::string& name, int out_channels, int kernel,
                         int stride, int pad, int groups) {
  layers_.push_back(
      make_conv(name, current_, out_channels, kernel, stride, pad, groups));
  current_ = layers_.back().out;
  return layers_.back();
}

Layer& Network::add_conv_branch(const std::string& name, Shape3 in,
                                int out_channels, int kernel, int stride,
                                int pad) {
  layers_.push_back(make_conv(name, in, out_channels, kernel, stride, pad));
  return layers_.back();
}

Layer& Network::add_fc(const std::string& name, int out_features) {
  layers_.push_back(make_fc(name, current_, out_features));
  current_ = layers_.back().out;
  return layers_.back();
}

Layer& Network::add_pool(const std::string& name, PoolKind pool, int kernel,
                         int stride, int pad) {
  layers_.push_back(make_pool(name, current_, pool, kernel, stride, pad));
  current_ = layers_.back().out;
  return layers_.back();
}

const Layer& Network::layer(std::size_t i) const {
  LOOM_EXPECTS(i < layers_.size());
  return layers_[i];
}

std::size_t Network::first_chain_break() const noexcept {
  Shape3 produced = input_;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].in != produced) return i;
    produced = layers_[i].out;
  }
  return layers_.size();
}

std::string Network::execution_error() const {
  if (const std::size_t i = first_chain_break(); i < layers_.size()) {
    return "layer '" + layers_[i].name +
           "' does not consume its producer's output; a flattened branching "
           "topology is analytic-only";
  }
  for (const Layer& l : layers_) {
    if (!geometry_consistent(l)) {
      return "layer '" + l.name + "' has impossible geometry";
    }
  }
  return {};
}

std::vector<std::size_t> Network::conv_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].kind == LayerKind::kConv) out.push_back(i);
  }
  return out;
}

std::int64_t Network::conv_macs() const {
  std::int64_t n = 0;
  for (const Layer& l : layers_) {
    if (l.kind == LayerKind::kConv) n += l.macs();
  }
  return n;
}

std::int64_t Network::fc_macs() const {
  std::int64_t n = 0;
  for (const Layer& l : layers_) {
    if (l.kind == LayerKind::kFullyConnected) n += l.macs();
  }
  return n;
}

std::int64_t Network::total_macs() const { return conv_macs() + fc_macs(); }

std::int64_t Network::total_weights() const {
  std::int64_t n = 0;
  for (const Layer& l : layers_) n += l.weight_count();
  return n;
}

int Network::output_precision(std::size_t i) const {
  for (std::size_t j = i + 1; j < layers_.size(); ++j) {
    if (layers_[j].kind == LayerKind::kConv) return layers_[j].act_precision;
    if (layers_[j].kind == LayerKind::kFullyConnected) break;
  }
  return kBasePrecision;
}

}  // namespace loom::nn
