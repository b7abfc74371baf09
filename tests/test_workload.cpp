// Workload preparation: group-precision detection from real (overlapping)
// window data, Table 3 reproduction via calibrated weight streams, and the
// output-precision chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "common/bitops.hpp"
#include "golden.hpp"
#include "nn/synthetic.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/calibration.hpp"
#include "quant/group_precision.hpp"
#include "quant/profiles.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

quant::PrecisionProfile custom_profile() {
  quant::PrecisionProfile p;
  p.network = "custom";
  p.conv_act = {8, 6};
  p.conv_weight = 10;
  p.fc_weight = {9};
  p.dynamic_act_trim = 1.0;
  return p;
}

nn::Network custom_network() {
  nn::Network net("custom", nn::Shape3{8, 16, 16});
  net.add_conv("c1", 32, 3, 1, 1).precision_group = 0;
  net.add_conv("c2", 16, 3, 1, 1).precision_group = 1;
  net.add_fc("f1", 100);
  return net;
}

NetworkWorkload make_workload() {
  nn::Network net = custom_network();
  const auto profile = custom_profile();
  quant::apply_profile(net, profile);
  return NetworkWorkload(std::move(net), profile);
}

TEST(Workload, GroupPrecisionWithinProfileBound) {
  NetworkWorkload wl = make_workload();
  LayerWorkload& lw = wl.layer(0);
  const nn::Layer& layer = lw.layer();
  const ActPrecisionTable table = lw.act_group_precision_table(16);
  for (std::int64_t wb = 0; wb < table.wb_count(); ++wb) {
    for (std::int64_t ic = 0; ic < table.ic_count(); ++ic) {
      const int p = table.at(0, wb, ic);
      EXPECT_GE(p, 1);
      EXPECT_LE(p, layer.act_precision);
    }
  }
}

TEST(Workload, GroupPrecisionDeterministicAcrossInstances) {
  NetworkWorkload a = make_workload();
  NetworkWorkload b = make_workload();
  const ActPrecisionTable ta = a.layer(0).act_group_precision_table(16);
  const ActPrecisionTable tb = b.layer(0).act_group_precision_table(16);
  for (std::int64_t wb = 0; wb < 4; ++wb) {
    EXPECT_EQ(ta.at(0, wb, 0), tb.at(0, wb, 0));
  }
}

TEST(Workload, MeanDetectedPrecisionNearTrimTarget) {
  NetworkWorkload wl = make_workload();
  const ActPrecisionTable table = wl.layer(0).act_group_precision_table(16);
  double sum = 0.0;
  std::int64_t n = 0;
  for (std::int64_t wb = 0; wb < table.wb_count(); ++wb) {
    for (std::int64_t ic = 0; ic < table.ic_count(); ++ic) {
      sum += table.at(0, wb, ic);
      ++n;
    }
  }
  // Profile Pa = 8, trim target = 1.0 -> mean detected ~ 7.
  EXPECT_NEAR(sum / static_cast<double>(n), 7.0, 0.5);
}

TEST(Workload, SmallerColumnsNeverIncreasePrecision) {
  // A group of 4 windows is a subset of the 16-window group: its detected
  // precision cannot exceed the superset's.
  NetworkWorkload wl = make_workload();
  LayerWorkload& lw = wl.layer(0);
  const ActPrecisionTable t16 = lw.act_group_precision_table(16);
  const ActPrecisionTable t4 = lw.act_group_precision_table(4);
  for (std::int64_t wb16 = 0; wb16 < 4; ++wb16) {
    const int p16 = t16.at(0, wb16, 0);
    for (std::int64_t sub = 0; sub < 4; ++sub) {
      const int p4 = t4.at(0, wb16 * 4 + sub, 0);
      EXPECT_LE(p4, p16);
    }
  }
}

TEST(Workload, EffectiveWeightPrecisionBelowProfile) {
  NetworkWorkload wl = make_workload();
  const double eff = wl.layer(0).effective_weight_precision();
  EXPECT_GT(eff, 1.0);
  EXPECT_LT(eff, 10.0);  // profile Pw = 10, target 0.85x = 8.5
  EXPECT_NEAR(eff, 8.5, 0.5);
}

/// The weight statistics of every `stride`-th 16-weight group of `source`,
/// one value at a time through SyntheticSource::at.
struct NaiveWeightStats {
  double precision = 0.0;
  double planes = 0.0;
  double mean_per_weight = 0.0;
  double synced_per_group = 0.0;
};

NaiveWeightStats naive_weight_stats(const nn::SyntheticSource& source,
                                    std::int64_t count, std::int64_t stride) {
  std::int64_t precision = 0;
  std::int64_t planes = 0;
  std::int64_t terms = 0;
  std::int64_t synced = 0;
  std::int64_t sampled = 0;
  std::int64_t weights = 0;
  for (std::int64_t g = 0; g < ceil_div(count, 16); g += stride, ++sampled) {
    int p = 1;
    std::uint32_t ored = 0;
    std::uint32_t positions = 0;
    for (std::int64_t i = g * 16; i < std::min((g + 1) * 16, count);
         ++i, ++weights) {
      const Value v = source.at(static_cast<std::uint64_t>(i));
      p = std::max(p, needed_bits_signed(v));
      const auto mag = static_cast<std::uint32_t>(v < 0 ? -v : v);
      ored |= mag;
      terms += std::popcount(naf_digits(mag).positions());
      positions |= naf_digits(mag).positions();
    }
    precision += p;
    planes += std::max(1, std::popcount(ored) + (ored != 0 ? 1 : 0));
    synced += std::max(1, std::popcount(positions));
  }
  const auto mean = [](std::int64_t sum, std::int64_t n) {
    return static_cast<double>(sum) / static_cast<double>(n);
  };
  return {mean(precision, sampled), mean(planes, sampled),
          std::max(mean(terms, weights), 1.0 / 16.0), mean(synced, sampled)};
}

void expect_naive_weight_stats(LayerWorkload& lw, const NaiveWeightStats& naive) {
  EXPECT_EQ(lw.effective_weight_precision(), naive.precision);
  EXPECT_EQ(lw.essential_weight_planes(), naive.planes);
  const LayerWorkload::WeightTermStats naf = lw.naf_weight_terms();
  EXPECT_EQ(naf.mean_per_weight, naive.mean_per_weight);
  EXPECT_EQ(naf.synced_per_group, naive.synced_per_group);
}

TEST(Workload, WeightStatsMatchNaiveGroupLoopsWhenSampled) {
  // 1024 x 4096 FC weights: 262,144 groups of 16, twice the 2^21-weight
  // sampling cap, so the one weight-statistics pass reads every 2nd group.
  nn::Network net("custom", nn::Shape3{1024, 1, 1});
  net.add_fc("big", 4096);
  const quant::PrecisionProfile profile = custom_profile();
  quant::apply_profile(net, profile);
  const std::int64_t count = net.layer(0).weight_count();
  const std::int64_t groups = ceil_div(count, 16);
  const std::int64_t stride = groups / ((1 << 21) / 16);
  ASSERT_EQ(stride, 2);
  NetworkWorkload wl(std::move(net), profile);
  LayerWorkload& lw = wl.layer(0);

  // The same calibrated stream: a network without a Table 3 entry targets
  // 0.85 x its profile Pw (9 here).
  const nn::SyntheticSource source(
      1, nn::weight_stream(0),
      quant::calibrated_spec_cached(9, /*is_signed=*/true, 0.0, 16, 0.85 * 9));
  EXPECT_EQ(lw.effective_weight_precision(),
            quant::weight_group_stats(source, count, 16,
                                      static_cast<int>(stride))
                .mean);
  expect_naive_weight_stats(lw, naive_weight_stats(source, count, stride));
}

TEST(Workload, WeightStatsMatchNaiveGroupLoopsOnPartialGroup) {
  // 77 x 103 FC weights: 7931 = 495 groups of 16 plus one of 11, long
  // enough for the tabulated stream, read whole (stride 1).
  nn::Network net("custom", nn::Shape3{77, 1, 1});
  net.add_fc("odd", 103);
  const quant::PrecisionProfile profile = custom_profile();
  quant::apply_profile(net, profile);
  const std::int64_t count = net.layer(0).weight_count();
  ASSERT_EQ(count % 16, 11);
  NetworkWorkload wl(std::move(net), profile);
  const nn::SyntheticSource source(
      1, nn::weight_stream(0),
      quant::calibrated_spec_cached(9, /*is_signed=*/true, 0.0, 16, 0.85 * 9));
  ASSERT_TRUE(nn::SyntheticStream(source, count).tabulated());
  expect_naive_weight_stats(wl.layer(0), naive_weight_stats(source, count, 1));
}

TEST(Workload, HonestPrecisionAtLeastMean) {
  NetworkWorkload wl = make_workload();
  LayerWorkload& lw = wl.layer(0);
  const double mean_p = lw.effective_weight_precision();
  const double honest1 = lw.honest_weight_precision(1);
  const double honest128 = lw.honest_weight_precision(128);
  EXPECT_GE(honest1 + 0.3, mean_p);  // single group ~ mean (MC tolerance)
  EXPECT_GE(honest128, honest1);     // max over more groups only grows
  EXPECT_LE(honest128, 10.0);
}

TEST(Workload, OutPrecisionFollowsConsumerProfile) {
  NetworkWorkload wl = make_workload();
  // c1 feeds c2 whose profile Pa is 6; c2 feeds the FC (16).
  EXPECT_EQ(wl.layer(0).out_precision, 6);
  EXPECT_EQ(wl.layer(1).out_precision, 16);
}

TEST(Workload, Table3TargetsReproducedOnZooNetwork) {
  auto wl = prepare_network("alexnet", quant::AccuracyTarget::k100);
  const auto& table3 = quant::effective_weight_precisions("alexnet");
  const auto conv_indices = wl->network().conv_indices();
  ASSERT_EQ(conv_indices.size(), table3.size());
  for (std::size_t i = 0; i < conv_indices.size(); ++i) {
    const double measured = wl->layer(conv_indices[i]).effective_weight_precision();
    EXPECT_NEAR(measured, table3[i], 0.25) << "conv layer " << i;
  }
}

TEST(Workload, FcWeightTargetUsesConvTrimRatio) {
  auto wl = prepare_network("alexnet", quant::AccuracyTarget::k100);
  const nn::Network& net = wl->network();
  std::size_t fc6 = 0;
  while (net.layer(fc6).kind != nn::LayerKind::kFullyConnected) ++fc6;
  const double eff = wl->layer(fc6).effective_weight_precision();
  // fc6 profile Pw = 10; AlexNet conv trim ratio ~ 7.7/11 -> target ~ 7.0.
  EXPECT_GT(eff, 5.5);
  EXPECT_LT(eff, 10.0);
}

TEST(Workload, PrepareNetworkAppliesProfile) {
  auto wl = prepare_network("vggs", quant::AccuracyTarget::k99);
  const auto convs = wl->network().conv_indices();
  EXPECT_EQ(wl->network().layer(convs[0]).act_precision, 7);
  EXPECT_EQ(wl->network().layer(convs[0]).weight_precision, 11);
}

TEST(Workload, PaperNetworkWeightStatsArePinned) {
  // Every weighted layer's sampled weight statistics for the six paper
  // networks at seed 7, 100% profiles: the streams behind Table 2's
  // weight-side numbers. Captured before the threshold-table bulk path.
  struct Pin {
    const char* network;
    std::uint64_t digest;
  };
  WorkloadOptions opts;
  opts.seed = 7;
  for (const Pin pin : {Pin{"nin", 0x63b6b516812a45c4ull},
                        Pin{"alexnet", 0x4e9851b6fde2dbcfull},
                        Pin{"googlenet", 0xad9f06e671e9f44bull},
                        Pin{"vggs", 0x650d3429098fff3full},
                        Pin{"vggm", 0x513938c88bdd755aull},
                        Pin{"vgg19", 0x822ad38bb671cbaeull}}) {
    auto wl = prepare_network(pin.network, quant::AccuracyTarget::k100, opts);
    golden::Fnv fnv;
    for (std::size_t i = 0; i < wl->network().size(); ++i) {
      const nn::Layer& layer = wl->network().layer(i);
      if (!layer.has_weights() || layer.weight_count() == 0) continue;
      LayerWorkload& lw = wl->layer(i);
      fnv.u64(i);
      fnv.u64(std::bit_cast<std::uint64_t>(lw.effective_weight_precision()));
      fnv.u64(std::bit_cast<std::uint64_t>(lw.essential_weight_planes()));
      const LayerWorkload::WeightTermStats naf = lw.naf_weight_terms();
      fnv.u64(std::bit_cast<std::uint64_t>(naf.mean_per_weight));
      fnv.u64(std::bit_cast<std::uint64_t>(naf.synced_per_group));
    }
    EXPECT_EQ(fnv.h, pin.digest)
        << pin.network << " 0x" << std::hex << fnv.h;
  }
}

TEST(Workload, CalibratedAlphasArePinned) {
  // Every alpha the six paper networks calibrate at both accuracy targets
  // (seed 1): each weighted layer's weight spec (calibrated_spec_cached on
  // its Table 3 target) and each conv layer's input spec (bisected on the
  // layer's own detection groups). Captured before the sorted-threshold
  // calibration; the digests hash (target, layer, alpha bits) in layer
  // order.
  struct Pin {
    const char* network;
    std::uint64_t digest;
  };
  for (const Pin pin : {Pin{"nin", 0x7b23b971f8621ba9ull},
                        Pin{"alexnet", 0xdaa5772e7146f6caull},
                        Pin{"googlenet", 0x04e59016fbc80dd8ull},
                        Pin{"vggs", 0x7758cf12cb57cd8aull},
                        Pin{"vggm", 0x1361af994208b353ull},
                        Pin{"vgg19", 0x7c348ed29f2d42d2ull}}) {
    golden::Fnv fnv;
    for (const auto target :
         {quant::AccuracyTarget::k100, quant::AccuracyTarget::k99}) {
      auto wl = prepare_network(pin.network, target, {});
      for (std::size_t i = 0; i < wl->network().size(); ++i) {
        const nn::Layer& layer = wl->network().layer(i);
        LayerWorkload& lw = wl->layer(i);
        fnv.u64(static_cast<std::uint64_t>(target));
        fnv.u64(i);
        if (layer.has_weights() && layer.weight_count() > 0) {
          fnv.f64(lw.weight_source().spec().alpha);
        }
        if (layer.kind == nn::LayerKind::kConv) fnv.f64(lw.input_spec().alpha);
      }
    }
    EXPECT_EQ(fnv.h, pin.digest) << pin.network << " 0x" << std::hex << fnv.h;
  }
  // A few alphas as literals, to read off which side moved.
  auto alexnet = prepare_network("alexnet", quant::AccuracyTarget::k100, {});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                alexnet->layer(0).weight_source().spec().alpha),
            0x4041a027d11eb597ull)
      << alexnet->layer(0).weight_source().spec().alpha;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(alexnet->layer(0).input_spec().alpha),
            0x4061fb1a58ef7853ull)
      << alexnet->layer(0).input_spec().alpha;
}

TEST(Workload, RegistryInputAlphasArePinned) {
  // The input spec ModelRegistry::add_synthetic calibrates for a network:
  // its first conv layer's precision and activation trim over generic
  // 256-value groups with 45% zeros. Six paper networks (100% profiles)
  // plus the serving tests' small convnet, captured before the
  // sorted-threshold calibration.
  golden::Fnv fnv;
  for (const char* name :
       {"nin", "alexnet", "googlenet", "vggs", "vggm", "vgg19"}) {
    nn::Network net = nn::zoo::make(name);
    const quant::PrecisionProfile& profile =
        quant::profile_for(name, quant::AccuracyTarget::k100);
    quant::apply_profile(net, profile);
    for (const auto& l : net.layers()) {
      if (l.kind != nn::LayerKind::kConv) continue;
      const double target = std::max(
          1.0, static_cast<double>(l.act_precision) - profile.dynamic_act_trim);
      fnv.f64(quant::calibrated_spec_cached(l.act_precision, false, 0.45, 256,
                                            target)
                  .alpha);
      break;
    }
  }
  EXPECT_EQ(fnv.h, 0x131c41a4a71e6c96ull) << "0x" << std::hex << fnv.h;
  // convnet: Pa 8, no trim.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                quant::calibrated_spec_cached(8, false, 0.45, 256, 8.0).alpha),
            0x3ff0000000000000ull)
      << quant::calibrated_spec_cached(8, false, 0.45, 256, 8.0).alpha;
}

}  // namespace
}  // namespace loom::sim
