// Whole-network equivalence for VGG-S and VGG-M: the Loom engine on the
// gemm kernel at batch 1 and 2 against the nn::reference chain, with one
// pinned digest per network (see zoo_equivalence.hpp). Labelled slow: the
// reference chains alone take tens of seconds in Release.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace loom::sim::zoo_equivalence
