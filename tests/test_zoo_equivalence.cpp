// Whole-network equivalence at zoo scale: NiN and AlexNet (100% profiles,
// synthetic weights and inputs) through run_network at batch 1 and
// run_network_batch at batch 2, on every fast kernel. Every weighted
// layer's exact accumulators must equal the nn::reference chain — conv /
// fc forward, the reference's own requantization shift, pooling — and each
// kernel's outputs plus per-layer cycles hash to one pinned FNV digest per
// network, so a kernel that drifts in values *or* in streaming statistics
// breaks the pin.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "golden.hpp"
#include "nn/reference.hpp"
#include "nn/synthetic.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "sim/functional.hpp"

namespace loom::sim {
namespace {

struct ZooCase {
  nn::Network net;
  std::vector<nn::Tensor> weights;
  std::vector<nn::Tensor> inputs;  ///< two requests
};

ZooCase make_case(const std::string& name) {
  ZooCase c{nn::zoo::make(name), {}, {}};
  quant::apply_profile(c.net, quant::profile_for(name, quant::AccuracyTarget::k100));
  std::uint64_t layer_index = 0;
  for (const nn::Layer& l : c.net.layers()) {
    if (l.has_weights()) {
      c.weights.push_back(nn::make_weight_tensor(
          l.weight_count(),
          {.precision = l.weight_precision, .alpha = 3.0, .is_signed = true},
          0x200, nn::weight_stream(layer_index)));
    }
    ++layer_index;
  }
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
std::vector<nn::WideTensor> reference_chain(const ZooCase& c,
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

void check_network(const std::string& name, std::uint64_t want) {
  const ZooCase c = make_case(name);
  // The two reference chains are independent: run them side by side.
  auto second = std::async(std::launch::async,
                           [&c] { return reference_chain(c, c.inputs[1]); });
  const std::vector<nn::WideTensor> ref[] = {reference_chain(c, c.inputs[0]),
                                             second.get()};
  for (const char* backend : {"gemm", "bitslice"}) {
    SCOPED_TRACE(name + " on " + backend);
    FunctionalLoomEngine engine(FunctionalOptions{.jobs = 1, .backend = backend});
    golden::Fnv f;

    const FunctionalNetworkRun solo =
        engine.run_network(c.net, c.inputs[0], c.weights);
    ASSERT_EQ(solo.layers.size(), ref[0].size());
    for (std::size_t i = 0; i < solo.layers.size(); ++i) {
      EXPECT_EQ(solo.layers[i].backend, backend);
      EXPECT_TRUE(solo.layers[i].wide == ref[0][i]) << solo.layers[i].name;
      f.u64(solo.layers[i].cycles);
    }
    f.tensor(solo.output);

    const FunctionalBatchNetworkRun batch =
        engine.run_network_batch(c.net, c.inputs, c.weights);
    ASSERT_EQ(batch.layers.size(), ref[0].size());
    for (std::size_t i = 0; i < batch.layers.size(); ++i) {
      for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_TRUE(batch.layers[i].wides[r] == ref[r][i])
            << batch.layers[i].name << " request " << r;
      }
      f.u64(batch.layers[i].cycles);
    }
    f.tensor(batch.outputs[0]);
    f.tensor(batch.outputs[1]);
    EXPECT_EQ(batch.outputs[0], solo.output);

    EXPECT_EQ(f.h, want) << std::hex << "digest 0x" << f.h;
  }
}

TEST(ZooEquivalence, NinMatchesReferenceChainOnEveryKernel) {
  check_network("nin", 0x4dc59414eb7b37dfull);
}

TEST(ZooEquivalence, AlexnetMatchesReferenceChainOnEveryKernel) {
  check_network("alexnet", 0x061413f2567f1054ull);
}

}  // namespace
}  // namespace loom::sim
