// Model zoo integrity: layer counts, precision-group structure and MAC
// totals must line up with the published architectures and with the paper's
// Table 1 profile shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "nn/network.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"

namespace loom::nn {
namespace {

std::vector<std::size_t> fc_indices(const Network& net) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.layer(i).kind == LayerKind::kFullyConnected) out.push_back(i);
  }
  return out;
}

/// Distinct activation-precision groups (= Table 1 profile entries).
int conv_precision_groups(const Network& net) {
  int max_group = -1;
  for (const std::size_t i : net.conv_indices()) {
    max_group = std::max(max_group, net.layer(i).precision_group);
  }
  return max_group + 1;
}

TEST(Network, ShapeChaining) {
  Network net("t", Shape3{3, 32, 32});
  net.add_conv("c1", 8, 3, 1, 1);
  net.add_pool("p1", PoolKind::kMax, 2, 2);
  net.add_fc("f1", 10);
  EXPECT_EQ(net.layer(0).out, (Shape3{8, 32, 32}));
  EXPECT_EQ(net.layer(1).out, (Shape3{8, 16, 16}));
  EXPECT_EQ(net.layer(2).in.elements(), 8 * 16 * 16);
  EXPECT_EQ(net.layer(2).out.c, 10);
}

TEST(Network, IndicesAndTotals) {
  Network net("t", Shape3{3, 8, 8});
  net.add_conv("c1", 4, 3, 1, 1);
  net.add_fc("f1", 10);
  EXPECT_EQ(net.conv_indices().size(), 1u);
  EXPECT_EQ(fc_indices(net).size(), 1u);
  EXPECT_EQ(net.total_macs(), net.conv_macs() + net.fc_macs());
}

TEST(Zoo, AlexNetStructure) {
  const Network net = zoo::make_alexnet();
  EXPECT_EQ(net.conv_indices().size(), 5u);
  EXPECT_EQ(fc_indices(net).size(), 3u);
  EXPECT_EQ(conv_precision_groups(net), 5);
  // Published totals: ~666M conv MACs, ~58.6M FC MACs.
  EXPECT_NEAR(static_cast<double>(net.conv_macs()), 666e6, 10e6);
  EXPECT_NEAR(static_cast<double>(net.fc_macs()), 58.6e6, 1e6);
}

TEST(Zoo, NiNStructure) {
  const Network net = zoo::make_nin();
  EXPECT_EQ(net.conv_indices().size(), 12u);  // Table 1 lists 12 precisions
  EXPECT_TRUE(fc_indices(net).empty());      // FCL rows are n/a in Table 2
  EXPECT_EQ(conv_precision_groups(net), 12);
  EXPECT_GT(net.conv_macs(), 1000e6 * 0.9);
}

TEST(Zoo, GoogLeNetStructure) {
  const Network net = zoo::make_googlenet();
  // 3 stem convs + 9 modules x 6 branch convs = 57 convolutions.
  EXPECT_EQ(net.conv_indices().size(), 57u);
  EXPECT_EQ(fc_indices(net).size(), 1u);
  EXPECT_EQ(conv_precision_groups(net), 11);  // Table 1 lists 11 precisions
  // ~1.58G MACs for one 224x224 inference (single crop, main branch).
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 1.58e9, 0.2e9);
  // The classifier reads the 1024-channel global average pool.
  EXPECT_EQ(net.layer(fc_indices(net)[0]).in.elements(), 1024);
  EXPECT_EQ(net.layer(fc_indices(net)[0]).out.c, 1000);
}

TEST(Zoo, Vgg19Structure) {
  const Network net = zoo::make_vgg19();
  EXPECT_EQ(net.conv_indices().size(), 16u);
  EXPECT_EQ(fc_indices(net).size(), 3u);
  EXPECT_EQ(conv_precision_groups(net), 16);
  // ~19.5G conv MACs, ~123.6M FC MACs (published).
  EXPECT_NEAR(static_cast<double>(net.conv_macs()), 19.5e9, 0.5e9);
  EXPECT_NEAR(static_cast<double>(net.fc_macs()), 123.6e6, 2e6);
}

TEST(Zoo, VggSAndVggMStructure) {
  for (const auto* name : {"vggs", "vggm"}) {
    const Network net = zoo::make(name);
    EXPECT_EQ(net.conv_indices().size(), 5u) << name;
    EXPECT_EQ(fc_indices(net).size(), 3u) << name;
    EXPECT_EQ(conv_precision_groups(net), 5) << name;
  }
}

TEST(Zoo, UnknownNameThrows) {
  EXPECT_THROW((void)zoo::make("resnet"), ConfigError);
}

TEST(Zoo, EveryNetworkMatchesItsProfiles) {
  for (const std::string& name : zoo::paper_networks()) {
    const Network net = zoo::make(name);
    for (const auto target :
         {quant::AccuracyTarget::k100, quant::AccuracyTarget::k99}) {
      const auto& profile = quant::profile_for(name, target);
      EXPECT_EQ(static_cast<int>(profile.conv_act.size()),
                conv_precision_groups(net))
          << name << " " << quant::to_string(target);
      EXPECT_EQ(profile.fc_weight.size(), fc_indices(net).size())
          << name << " " << quant::to_string(target);
    }
  }
}

TEST(Zoo, PrecisionGroupsAreContiguousFromZero) {
  for (const std::string& name : zoo::paper_networks()) {
    const Network net = zoo::make(name);
    std::vector<bool> seen(static_cast<std::size_t>(conv_precision_groups(net)),
                           false);
    for (const auto idx : net.conv_indices()) {
      const int g = net.layer(idx).precision_group;
      ASSERT_GE(g, 0) << name;
      ASSERT_LT(g, conv_precision_groups(net)) << name;
      seen[static_cast<std::size_t>(g)] = true;
    }
    for (const bool s : seen) EXPECT_TRUE(s) << name;
  }
}

}  // namespace
}  // namespace loom::nn
