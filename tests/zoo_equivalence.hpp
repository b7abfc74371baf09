// Shared body of the whole-network equivalence tests: one profiled zoo
// network (100% profile, synthetic weights prepared as a registered model's
// are, two synthetic input requests), its nn::reference chain, and the
// engine runs checked against it.
//
// Every weighted layer's exact accumulators must equal the reference chain
// — conv / fc forward, the engine's requantization rule, pooling — at
// batch 1 (run_network) and batch 2 (run_network_batch). The Loom engine's
// outputs plus per-layer cycles also hash to one FNV digest per network,
// so a kernel that drifts in values *or* in streaming statistics breaks
// the caller's pin.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "nn/reference.hpp"
#include "nn/synthetic.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "sim/functional.hpp"

namespace loom::sim::zoo_equivalence {

struct ZooCase {
  nn::Network net;
  WeightSet weights;  ///< conv layers prepared, as ModelRegistry::add does
  std::vector<nn::Tensor> inputs;  ///< two requests
};

/// Per request, the reference chain's accumulators per weighted layer.
using ReferenceChains = std::array<std::vector<nn::WideTensor>, 2>;

inline ZooCase make_case(const std::string& name) {
  nn::Network net = nn::zoo::make(name);
  quant::apply_profile(net, quant::profile_for(name, quant::AccuracyTarget::k100));
  std::vector<nn::Tensor> weights;
  std::uint64_t layer_index = 0;
  for (const nn::Layer& l : net.layers()) {
    if (l.has_weights()) {
      weights.push_back(nn::make_weight_tensor(
          l.weight_count(),
          {.precision = l.weight_precision, .alpha = 3.0, .is_signed = true},
          0x200, nn::weight_stream(layer_index)));
    }
    ++layer_index;
  }
  WeightSet set(net, std::move(weights));
  ZooCase c{std::move(net), std::move(set), {}};
  const nn::Layer& first = c.net.layer(0);
  const nn::SyntheticSpec act{.precision = first.act_precision, .alpha = 3.0,
                              .is_signed = false, .zero_fraction = 0.45};
  for (std::uint64_t r = 0; r < 2; ++r) {
    c.inputs.push_back(nn::make_activation_tensor(first.in, act, 0x200, r));
  }
  return c;
}

/// The reference chain's exact accumulators per weighted layer, with the
/// engine's requantization rule (consumer conv Pa, else 16 bits; ReLU).
inline std::vector<nn::WideTensor> reference_chain(const ZooCase& c,
                                                   const nn::Tensor& input) {
  std::vector<nn::WideTensor> wides;
  nn::Tensor x = input;
  std::size_t wi = 0;
  for (std::size_t i = 0; i < c.net.size(); ++i) {
    const nn::Layer& l = c.net.layer(i);
    if (!l.has_weights()) {
      x = nn::pool_forward(x, l);
      continue;
    }
    int out_bits = kBasePrecision;
    for (std::size_t j = i + 1; j < c.net.size(); ++j) {
      const nn::Layer& next = c.net.layer(j);
      if (next.kind == nn::LayerKind::kConv) out_bits = next.act_precision;
      if (next.has_weights()) break;
    }
    nn::WideTensor w = l.kind == nn::LayerKind::kConv
                           ? nn::conv_forward(x, c.weights[wi], l)
                           : nn::fc_forward(x, c.weights[wi], l);
    x = nn::requantize(w, nn::choose_requant_shift(w, out_bits), out_bits, true);
    wides.push_back(std::move(w));
    ++wi;
  }
  return wides;
}

/// Both requests' chains. They are independent: run them side by side.
inline ReferenceChains reference_chains(const ZooCase& c) {
  auto second = std::async(std::launch::async,
                           [&c] { return reference_chain(c, c.inputs[1]); });
  return {reference_chain(c, c.inputs[0]), second.get()};
}

struct EngineRuns {
  FunctionalNetworkRun solo;         ///< request 0 alone
  FunctionalBatchNetworkRun batch;   ///< both requests as one batch
};

/// Run `engine` solo on request 0 and batched on both requests, checking
/// every layer's accumulators against `ref`.
inline EngineRuns run_and_check(FunctionalLoomEngine& engine, const ZooCase& c,
                                const ReferenceChains& ref) {
  EngineRuns runs{engine.run_network(c.net, c.inputs[0], c.weights),
                  engine.run_network_batch(c.net, c.inputs, c.weights)};
  const std::size_t n = ref[0].size();
  EXPECT_EQ(runs.solo.layers.size(), n);
  EXPECT_EQ(runs.batch.layers.size(), n);
  for (std::size_t i = 0; i < std::min({n, runs.solo.layers.size(),
                                        runs.batch.layers.size()});
       ++i) {
    const FunctionalLayerRun& solo = runs.solo.layers[i];
    EXPECT_EQ(solo.backend, engine.backend_name());
    EXPECT_TRUE(solo.wide == ref[0][i]) << solo.name;
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_TRUE(runs.batch.layers[i].wides[r] == ref[r][i])
          << solo.name << " request " << r;
    }
  }
  EXPECT_EQ(runs.batch.outputs[0], runs.solo.output);
  return runs;
}

/// Outputs plus per-layer cycles of both runs.
inline std::uint64_t digest(const EngineRuns& runs) {
  golden::Fnv f;
  for (const FunctionalLayerRun& l : runs.solo.layers) f.u64(l.cycles);
  f.tensor(runs.solo.output);
  for (const FunctionalBatchLayerRun& l : runs.batch.layers) f.u64(l.cycles);
  f.tensor(runs.batch.outputs[0]);
  f.tensor(runs.batch.outputs[1]);
  return f.h;
}

/// The Loom engine on the gemm kernel; `want` pins its digest.
inline void check_loom(const ZooCase& c, const ReferenceChains& ref,
                       std::uint64_t want) {
  SCOPED_TRACE("Loom on gemm");
  FunctionalLoomEngine engine(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  const std::uint64_t got = digest(run_and_check(engine, c, ref));
  EXPECT_EQ(got, want) << std::hex << "digest 0x" << got;
}

}  // namespace loom::sim::zoo_equivalence
