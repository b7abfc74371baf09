// Published profile data (paper Tables 1 and 3) and its application to
// networks.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"

namespace loom::quant {
namespace {

TEST(Profiles, Table1SpotChecks) {
  const auto& alex100 = profile_for("alexnet", AccuracyTarget::k100);
  EXPECT_EQ(alex100.conv_act, (std::vector<int>{9, 8, 5, 5, 7}));
  EXPECT_EQ(alex100.conv_weight, 11);
  EXPECT_EQ(alex100.fc_weight, (std::vector<int>{10, 9, 9}));

  const auto& alex99 = profile_for("alexnet", AccuracyTarget::k99);
  EXPECT_EQ(alex99.conv_act, (std::vector<int>{9, 7, 4, 5, 7}));
  EXPECT_EQ(alex99.fc_weight, (std::vector<int>{9, 8, 8}));

  const auto& goog = profile_for("googlenet", AccuracyTarget::k100);
  EXPECT_EQ(goog.conv_act.size(), 11u);
  EXPECT_EQ(goog.fc_weight, (std::vector<int>{7}));

  const auto& nin = profile_for("nin", AccuracyTarget::k99);
  EXPECT_EQ(nin.conv_weight, 10);
  EXPECT_TRUE(nin.fc_weight.empty());

  const auto& vgg19 = profile_for("vgg19", AccuracyTarget::k100);
  EXPECT_EQ(vgg19.conv_act.size(), 16u);
  EXPECT_EQ(vgg19.conv_act.front(), 12);
  EXPECT_EQ(vgg19.conv_act.back(), 13);
}

TEST(Profiles, PrecisionsAreInRange) {
  for (const std::string& net : nn::zoo::paper_networks()) {
    for (const auto t : {AccuracyTarget::k100, AccuracyTarget::k99}) {
      const auto& p = profile_for(net, t);
      for (const int a : p.conv_act) {
        EXPECT_GE(a, 4);
        EXPECT_LE(a, 13);
      }
      EXPECT_GE(p.conv_weight, 10);
      EXPECT_LE(p.conv_weight, 12);
      for (const int w : p.fc_weight) {
        EXPECT_GE(w, 7);
        EXPECT_LE(w, 10);
      }
      EXPECT_GE(p.dynamic_act_trim, 0.0);
      EXPECT_LT(p.dynamic_act_trim, 4.0);
    }
  }
}

TEST(Profiles, The99ProfileIsNoWiderOverall) {
  // Note: the published Table 1 contains a few individual layers whose 99%
  // precision exceeds the 100% one by a bit (profiling noise in the paper,
  // e.g. GoogLeNet layer 7 and VGGM layer 2) — so the invariant holds per
  // layer only up to +1 bit, and strictly for the totals.
  for (const std::string& net : nn::zoo::paper_networks()) {
    const auto& p100 = profile_for(net, AccuracyTarget::k100);
    const auto& p99 = profile_for(net, AccuracyTarget::k99);
    ASSERT_EQ(p100.conv_act.size(), p99.conv_act.size()) << net;
    int sum100 = 0;
    int sum99 = 0;
    for (std::size_t i = 0; i < p100.conv_act.size(); ++i) {
      EXPECT_LE(p99.conv_act[i], p100.conv_act[i] + 1) << net << " layer " << i;
      sum100 += p100.conv_act[i];
      sum99 += p99.conv_act[i];
    }
    EXPECT_LE(sum99, sum100) << net;
    EXPECT_LE(p99.conv_weight, p100.conv_weight) << net;
    for (std::size_t i = 0; i < p100.fc_weight.size(); ++i) {
      EXPECT_LE(p99.fc_weight[i], p100.fc_weight[i]) << net;
    }
  }
}

TEST(Profiles, UnknownNetworkThrows) {
  EXPECT_THROW((void)profile_for("lenet", AccuracyTarget::k100), ConfigError);
  EXPECT_THROW((void)effective_weight_precisions("lenet"), ConfigError);
}

TEST(Table3, EffectivePrecisionsBelowProfile) {
  for (const std::string& net : nn::zoo::paper_networks()) {
    const auto& eff = effective_weight_precisions(net);
    const auto& p = profile_for(net, AccuracyTarget::k100);
    EXPECT_EQ(eff.size(), p.conv_act.size()) << net;
    for (const double e : eff) {
      EXPECT_GT(e, 4.0) << net;
      EXPECT_LT(e, static_cast<double>(p.conv_weight)) << net;
    }
  }
}

TEST(ApplyProfile, StampsConvAndFcLayers) {
  nn::Network net = nn::zoo::make_alexnet();
  apply_profile(net, profile_for("alexnet", AccuracyTarget::k100));
  const auto convs = net.conv_indices();
  EXPECT_EQ(net.layer(convs[0]).act_precision, 9);
  EXPECT_EQ(net.layer(convs[2]).act_precision, 5);
  EXPECT_EQ(net.layer(convs[0]).weight_precision, 11);
  std::vector<std::size_t> fcs;
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    if (net.layer(i).kind == nn::LayerKind::kFullyConnected) fcs.push_back(i);
  }
  ASSERT_EQ(fcs.size(), 3u);
  EXPECT_EQ(net.layer(fcs[0]).weight_precision, 10);
  EXPECT_EQ(net.layer(fcs[2]).weight_precision, 9);
  // FCLs stream full-width activations.
  EXPECT_EQ(net.layer(fcs[0]).act_precision, 16);
}

TEST(ApplyProfile, GoogLeNetGroupsShareProfileEntries) {
  nn::Network net = nn::zoo::make_googlenet();
  apply_profile(net, profile_for("googlenet", AccuracyTarget::k100));
  // All six convs of inception_3a (group 2) share the entry value 10.
  int count = 0;
  for (const auto& l : net.layers()) {
    if (l.kind == nn::LayerKind::kConv && l.precision_group == 2) {
      EXPECT_EQ(l.act_precision, 10);
      ++count;
    }
  }
  EXPECT_EQ(count, 6);
}

TEST(ToString, Targets) {
  EXPECT_EQ(to_string(AccuracyTarget::k100), "100%");
  EXPECT_EQ(to_string(AccuracyTarget::k99), "99%");
}

}  // namespace
}  // namespace loom::quant
