// Whole-network equivalence for VGG-S and VGG-M: the Loom engine on the
// gemm kernel at batch 1 and 2 against the nn::reference chain, with one
// pinned digest per network (see zoo_equivalence.hpp). VGG-19 (sixteen
// 3x3 pad-1 convs) runs at batch 1 only. Labelled slow: the reference
// chains alone take tens of seconds in Release.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "zoo_equivalence.hpp"

namespace loom::sim::zoo_equivalence {
namespace {

void check_network(const std::string& name, std::uint64_t want) {
  const ZooCase c = make_case(name);
  check_loom(c, reference_chains(c), want);
}

TEST(ZooEquivalenceVgg, VggSMatchesReferenceChain) {
  check_network("vggs", 0x5f9b3a2ba569a35cull);
}

TEST(ZooEquivalenceVgg, VggMMatchesReferenceChain) {
  check_network("vggm", 0x2a5b5a3141dae37dull);
}

/// VGG-19 at batch 1. Its serial reference chain takes about two minutes
/// in Release, so each weighted layer is checked on its own, in parallel,
/// from the input the engine fed it (the previous weighted layer's stored
/// output, pooled through nn::pool_forward): accumulators, shift and
/// requantized output must all match nn::reference, so by induction the
/// whole chain does.
TEST(ZooEquivalenceVgg, Vgg19MatchesReferenceLayerByLayer) {
  const ZooCase c = make_case("vgg19");
  FunctionalLoomEngine engine(FunctionalOptions{.jobs = 1, .backend = "gemm"});
  const FunctionalNetworkRun run =
      engine.run_network(c.net, c.inputs[0], c.weights);

  struct Call {
    const nn::Layer* layer;
    nn::Tensor input;
    std::size_t index;  ///< weighted-layer index into run.layers / weights
  };
  std::vector<Call> calls;
  nn::Tensor x = c.inputs[0];
  for (const nn::Layer& l : c.net.layers()) {
    if (!l.has_weights()) {
      x = nn::pool_forward(x, l);
      continue;
    }
    ASSERT_LT(calls.size(), run.layers.size());
    calls.push_back(Call{&l, x, calls.size()});
    x = run.layers[calls.size() - 1].output;
  }
  ASSERT_EQ(calls.size(), run.layers.size());
  EXPECT_EQ(x, run.output);

  std::vector<char> same(calls.size(), 0);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < calls.size(); i = next++) {
      const Call& k = calls[i];
      const FunctionalLayerRun& lr = run.layers[k.index];
      const nn::WideTensor ref =
          k.layer->kind == nn::LayerKind::kConv
              ? nn::conv_forward(k.input, c.weights[k.index], *k.layer)
              : nn::fc_forward(k.input, c.weights[k.index], *k.layer);
      const int shift = nn::choose_requant_shift(ref, lr.out_bits);
      same[i] = ref == lr.wide && shift == lr.requant_shift &&
                nn::requantize(ref, shift, lr.out_bits, true) == lr.output;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  golden::Fnv f;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_TRUE(same[i]) << run.layers[i].name;
    f.u64(run.layers[i].cycles);
  }
  f.tensor(run.output);
  EXPECT_EQ(f.h, 0x569395a4277327e4ull) << std::hex << "digest 0x" << f.h;
}

}  // namespace
}  // namespace loom::sim::zoo_equivalence
