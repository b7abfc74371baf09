// Whole-network equivalence at zoo scale: NiN and AlexNet through the Loom
// engine on the gemm kernel, at batch 1 and 2, against the nn::reference
// chain, with one pinned Loom digest per network (see
// zoo_equivalence.hpp). VGG-S and VGG-M, whose reference chains take tens
// of seconds, run in test_zoo_equivalence_vgg under the slow label.
#include <gtest/gtest.h>

#include "zoo_equivalence.hpp"

namespace loom::sim::zoo_equivalence {
namespace {

void check_network(const std::string& name, std::uint64_t want) {
  const ZooCase c = make_case(name);
  check_loom(c, reference_chains(c), want);
}

TEST(ZooEquivalence, NinMatchesReferenceChainOnEveryKernel) {
  check_network("nin", 0x4dc59414eb7b37dfull);
}

TEST(ZooEquivalence, AlexnetMatchesReferenceChainOnEveryKernel) {
  check_network("alexnet", 0x061413f2567f1054ull);
}

}  // namespace
}  // namespace loom::sim::zoo_equivalence
