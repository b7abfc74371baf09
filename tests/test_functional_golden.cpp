// Functional engine golden suite: byte-identity of the word-parallel kernel
// with the scalar arch::Sip oracle across awkward geometries and
// precisions, golden FNV digests captured before any word-parallel kernel
// existed, thread-count invariance, the unpackable-grid fallback, and the
// cascade-aware FC cycle model shared with the analytic simulator. (The
// Bitslice* suite names date from the first word-parallel kernel, a
// bit-sliced one; the digests they pin have not moved since.)
#include <gtest/gtest.h>

#include <algorithm>

#include "golden.hpp"
#include "sim/functional.hpp"
#include "sim/loom_sim.hpp"
#include "sim/workload.hpp"

namespace loom::sim {
namespace {

using golden::Fnv;

struct TestNet {
  nn::Network net;
  std::vector<nn::Tensor> weights;
  nn::Tensor input;
};

// Awkward geometry on purpose: odd channel counts (lane tails), windows not
// a multiple of the column count, grouped conv, stride 2 + heavy padding,
// 1x1 kernel, pooling between convs, and an FC tail.
TestNet make_golden_net() {
  nn::Network net("bitslice-golden", nn::Shape3{5, 13, 13});
  net.add_conv("c1", 14, 3, 1, 1).precision_group = 0;
  net.add_conv("g1", 10, 3, 1, 1, /*groups=*/2).precision_group = 1;
  net.add_pool("p1", nn::PoolKind::kMax, 2, 2);
  net.add_conv("s2", 12, 5, 2, 2).precision_group = 2;
  net.add_conv("k1", 9, 1, 1, 0).precision_group = 3;
  net.add_fc("f1", 17);
  quant::PrecisionProfile p;
  p.network = "bitslice-golden";
  p.conv_act = {7, 6, 8, 5};
  p.conv_weight = 9;
  p.fc_weight = {8};
  quant::apply_profile(net, p);

  TestNet s{std::move(net), {}, nn::Tensor{}};
  nn::SyntheticSpec act{.precision = 7, .alpha = 20.0, .is_signed = false};
  s.input = nn::make_activation_tensor(s.net.layer(0).in, act, 21, 1);
  std::uint64_t stream = 300;
  for (const auto& l : s.net.layers()) {
    if (!l.has_weights()) continue;
    nn::SyntheticSpec w{.precision = l.weight_precision, .alpha = 3.0,
                        .is_signed = true};
    s.weights.push_back(nn::make_weight_tensor(l.weight_count(), w, 22, stream++));
  }
  return s;
}

// Digest of a functional network run. FC-layer cycle counts are excluded:
// the functional FC cycle model became cascade-aware in the bit-slice PR
// and is pinned against the analytic model below instead.
std::uint64_t digest(const TestNet& s, const FunctionalNetworkRun& run,
                     const arch::Dispatcher& disp) {
  Fnv f;
  std::size_t li = 0;
  for (const auto& l : s.net.layers()) {
    if (!l.has_weights()) continue;
    const FunctionalLayerRun& lr = run.layers.at(li++);
    f.str(lr.name);
    f.u64(static_cast<std::uint64_t>(lr.out_bits));
    f.i64(lr.requant_shift);
    f.f64(lr.mean_streamed_precision);
    if (l.kind == nn::LayerKind::kConv) f.u64(lr.cycles);
    f.wide(lr.wide);
    f.tensor(lr.output);
  }
  f.tensor(run.output);
  f.u64(disp.activation_bits_streamed());
  f.u64(disp.weight_bits_streamed());
  f.u64(disp.detector().invocations());
  f.u64(disp.detector().values_inspected());
  return f.h;
}

// ---- Golden byte-identity vs pre-word-parallel main -----------------------
// FNV-1a digests captured on main immediately before the first word-parallel
// kernel landed, running the then-scalar functional engine on the net
// above. The word-parallel kernel and the scalar oracle must reproduce them
// bit for bit: outputs, wide accumulators,
// requant shifts, conv cycle counts, streamed-precision means, and the
// dispatcher/detector statistics.

constexpr std::uint64_t kGoldenDyn = 0x2fb41436f3890f37ull;
constexpr std::uint64_t kGoldenStatic = 0x52ca7ea52eaee0f7ull;

TEST(BitsliceGolden, DynamicRunMatchesPreChangeMain) {
  TestNet s = make_golden_net();
  FunctionalLoomEngine eng(FunctionalOptions{.rows = 8, .cols = 16});
  ASSERT_NE(eng.backend_name(), "scalar");
  const auto run =
      eng.run_network(s.net, s.input, WeightSet(s.net, s.weights));
  EXPECT_EQ(digest(s, run, eng.dispatcher()), kGoldenDyn);
}

TEST(BitsliceGolden, DynamicRunScalarOracleMatchesPreChangeMain) {
  TestNet s = make_golden_net();
  FunctionalLoomEngine eng(
      FunctionalOptions{.rows = 8, .cols = 16, .backend = "scalar"});
  ASSERT_EQ(eng.backend_name(), "scalar");
  const auto run =
      eng.run_network(s.net, s.input, WeightSet(s.net, s.weights));
  EXPECT_EQ(digest(s, run, eng.dispatcher()), kGoldenDyn);
}

TEST(BitsliceGolden, StaticRunMatchesPreChangeMainBothBackends) {
  for (const bool scalar : {false, true}) {
    TestNet s = make_golden_net();
    FunctionalLoomEngine eng(FunctionalOptions{.rows = 16,
                                               .cols = 8,
                                               .dynamic_act_precision = false,
                                               .backend = scalar ? "scalar" : ""});
    const auto run =
      eng.run_network(s.net, s.input, WeightSet(s.net, s.weights));
    EXPECT_EQ(digest(s, run, eng.dispatcher()), kGoldenStatic) << scalar;
  }
}

TEST(BitsliceGolden, JobsCountDoesNotChangeResults) {
  std::uint64_t reference = 0;
  for (const int jobs : {1, 3, 0}) {
    TestNet s = make_golden_net();
    FunctionalLoomEngine eng(
        FunctionalOptions{.rows = 8, .cols = 16, .jobs = jobs});
    const auto run =
      eng.run_network(s.net, s.input, WeightSet(s.net, s.weights));
    const std::uint64_t d = digest(s, run, eng.dispatcher());
    if (jobs == 1) {
      reference = d;
      EXPECT_EQ(d, kGoldenDyn);
    } else {
      EXPECT_EQ(d, reference) << jobs;
    }
  }
}

// ---- Brute-force equivalence vs the scalar grid ---------------------------

struct ConvCase {
  const char* name;
  nn::Shape3 in;
  int out_c, kernel, stride, pad, groups;
  int pa, pw;
  int rows, cols, lanes;
  bool dynamic;
};

void expect_conv_equivalent(const ConvCase& c) {
  nn::Network net("t", c.in);
  net.add_conv("c", c.out_c, c.kernel, c.stride, c.pad, c.groups)
      .precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "t";
  p.conv_act = {c.pa};
  p.conv_weight = c.pw;
  quant::apply_profile(net, p);
  const nn::Layer& layer = net.layer(0);
  nn::SyntheticSpec act{.precision = c.pa, .alpha = 2.0, .is_signed = false,
                        .zero_fraction = 0.2};
  nn::SyntheticSpec wsp{.precision = c.pw, .alpha = 1.5, .is_signed = true};
  const nn::Tensor input = nn::make_activation_tensor(layer.in, act, 5, 1);
  const nn::Tensor weights =
      nn::make_weight_tensor(layer.weight_count(), wsp, 6, 2);

  FunctionalOptions fo{.rows = c.rows, .cols = c.cols, .lanes = c.lanes,
                       .dynamic_act_precision = c.dynamic, .jobs = 1};
  FunctionalLoomEngine fast(fo);
  fo.backend = "scalar";
  FunctionalLoomEngine slow(fo);
  ASSERT_NE(fast.backend_name(), "scalar") << c.name;
  const auto rf = fast.run_conv(layer, input, weights, 16);
  const auto rs = slow.run_conv(layer, input, weights, 16);

  EXPECT_EQ(rf.cycles, rs.cycles) << c.name;
  EXPECT_EQ(rf.requant_shift, rs.requant_shift) << c.name;
  EXPECT_DOUBLE_EQ(rf.mean_streamed_precision, rs.mean_streamed_precision)
      << c.name;
  ASSERT_EQ(rf.wide.elements(), rs.wide.elements()) << c.name;
  for (std::int64_t i = 0; i < rs.wide.elements(); ++i) {
    ASSERT_EQ(rf.wide.flat(i), rs.wide.flat(i)) << c.name << " @" << i;
  }
  for (std::int64_t i = 0; i < rs.output.elements(); ++i) {
    ASSERT_EQ(rf.output.flat(i), rs.output.flat(i)) << c.name << " @" << i;
  }
  EXPECT_EQ(fast.dispatcher().activation_bits_streamed(),
            slow.dispatcher().activation_bits_streamed())
      << c.name;
  EXPECT_EQ(fast.dispatcher().weight_bits_streamed(),
            slow.dispatcher().weight_bits_streamed())
      << c.name;
  EXPECT_EQ(fast.dispatcher().detector().invocations(),
            slow.dispatcher().detector().invocations())
      << c.name;
  EXPECT_EQ(fast.dispatcher().detector().values_inspected(),
            slow.dispatcher().detector().values_inspected())
      << c.name;

  // Against the golden model when no truncation can occur (the generators
  // can emit values the streamed precision clips, e.g. +1 at Pw = 1).
  int weight_bits = 1;
  for (const Value v : weights.data()) {
    weight_bits = std::max(weight_bits, needed_bits_signed(v));
  }
  if (group_precision_unsigned(input.data()) <= c.pa && weight_bits <= c.pw) {
    const nn::WideTensor golden = nn::conv_forward(input, weights, layer);
    for (std::int64_t i = 0; i < golden.elements(); ++i) {
      ASSERT_EQ(rf.wide.flat(i), golden.flat(i)) << c.name << " golden @" << i;
    }
  }
}

TEST(BitsliceEquivalence, AwkwardConvGeometries) {
  const ConvCase cases[] = {
      {"pad", {3, 9, 9}, 5, 3, 1, 1, 1, 8, 9, 4, 16, 16, true},
      {"stride2", {4, 11, 11}, 6, 3, 2, 1, 1, 7, 8, 8, 16, 16, true},
      {"grouped", {6, 8, 8}, 9, 3, 1, 1, 3, 6, 7, 4, 8, 16, true},
      {"lane-tail", {5, 7, 7}, 4, 3, 1, 0, 1, 8, 9, 16, 16, 16, true},
      {"cols-tail", {2, 5, 5}, 3, 3, 1, 2, 1, 5, 6, 2, 16, 16, true},
      {"cols-odd", {3, 8, 8}, 4, 3, 1, 1, 1, 7, 9, 4, 10, 16, true},
      {"cols-64", {3, 10, 10}, 4, 3, 1, 1, 1, 7, 9, 4, 64, 16, true},
      {"lanes-8", {4, 7, 7}, 5, 3, 1, 1, 1, 8, 8, 4, 16, 8, true},
      {"lanes-32", {4, 9, 9}, 5, 5, 1, 2, 1, 9, 10, 4, 16, 32, true},
      {"static", {4, 9, 9}, 6, 3, 1, 1, 1, 8, 11, 8, 16, 16, false},
      {"pa1", {3, 6, 6}, 4, 3, 1, 1, 1, 1, 8, 4, 16, 16, true},
      {"pw1", {3, 6, 6}, 4, 3, 1, 1, 1, 8, 1, 4, 16, 16, true},
      {"pa15pw15", {3, 6, 6}, 4, 3, 1, 1, 1, 15, 15, 4, 16, 16, true},
      {"k1x1", {7, 6, 6}, 5, 1, 1, 0, 1, 7, 9, 4, 16, 16, true},
  };
  for (const auto& c : cases) expect_conv_equivalent(c);
}

TEST(BitsliceEquivalence, OutOfProfileActivationsDetectLikeTheDispatcher) {
  // The OR detector inspects raw values and clamps to the profile after
  // leading-one detection. Feed activations wider than the profile: both
  // backends must stream the same (clamped) precision and truncate the
  // same bits.
  nn::Network net("t", nn::Shape3{3, 7, 7});
  net.add_conv("c", 4, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "t";
  p.conv_act = {6};  // profile narrower than the data below
  p.conv_weight = 8;
  quant::apply_profile(net, p);
  // Values whose low 6 bits are zero: a detector looking only at the
  // profile-masked bits would report Pa = 1 instead of the clamped 6.
  nn::Tensor input(nn::Shape{3, 7, 7});
  for (std::int64_t i = 0; i < input.elements(); ++i) {
    input.set_flat(i, static_cast<Value>(448 + (i % 4) * 64));
  }
  nn::SyntheticSpec wsp{.precision = 8, .alpha = 1.5, .is_signed = true};
  const nn::Tensor weights =
      nn::make_weight_tensor(net.layer(0).weight_count(), wsp, 32, 2);

  FunctionalOptions fo{.rows = 4, .cols = 16, .jobs = 1};
  FunctionalLoomEngine fast(fo);
  fo.backend = "scalar";
  FunctionalLoomEngine slow(fo);
  const auto rf = fast.run_conv(net.layer(0), input, weights, 16);
  const auto rs = slow.run_conv(net.layer(0), input, weights, 16);
  EXPECT_EQ(rf.cycles, rs.cycles);
  EXPECT_DOUBLE_EQ(rf.mean_streamed_precision, rs.mean_streamed_precision);
  EXPECT_EQ(fast.dispatcher().activation_bits_streamed(),
            slow.dispatcher().activation_bits_streamed());
  for (std::int64_t i = 0; i < rs.wide.elements(); ++i) {
    ASSERT_EQ(rf.wide.flat(i), rs.wide.flat(i)) << i;
  }
}

TEST(BitsliceEquivalence, FullPrecisionEngineAgreement) {
  // Pa = Pw = 16: engine-vs-engine only (the unsigned-activation streaming
  // semantics differ from the signed golden model once bit 15 is set).
  const ConvCase c{"p16", {3, 7, 7}, 4, 3, 1, 1, 1,
                   16, 16, 4, 16, 16, false};
  nn::Network net("t", c.in);
  net.add_conv("c", c.out_c, c.kernel, c.stride, c.pad, c.groups)
      .precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "t";
  p.conv_act = {16};
  p.conv_weight = 16;
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 16, .alpha = 1.2, .is_signed = false};
  nn::SyntheticSpec wsp{.precision = 16, .alpha = 1.2, .is_signed = true};
  const nn::Tensor input = nn::make_activation_tensor(net.layer(0).in, act, 7, 1);
  const nn::Tensor weights =
      nn::make_weight_tensor(net.layer(0).weight_count(), wsp, 8, 2);
  FunctionalOptions fo{.rows = c.rows, .cols = c.cols, .jobs = 1};
  FunctionalLoomEngine fast(fo);
  fo.backend = "scalar";
  FunctionalLoomEngine slow(fo);
  const auto rf = fast.run_conv(net.layer(0), input, weights, 16);
  const auto rs = slow.run_conv(net.layer(0), input, weights, 16);
  for (std::int64_t i = 0; i < rs.wide.elements(); ++i) {
    ASSERT_EQ(rf.wide.flat(i), rs.wide.flat(i)) << i;
  }
  EXPECT_EQ(rf.cycles, rs.cycles);
}

TEST(BitsliceEquivalence, SignedFcActivations) {
  // run_fc streams signed 16-bit activations; drive both backends with a
  // genuinely negative input tensor and check against the golden model.
  nn::Network net("t", nn::Shape3{37, 1, 1});
  net.add_fc("f", 70);  // > 64 outputs: exercises the slab tail
  quant::PrecisionProfile p;
  p.network = "t";
  p.fc_weight = {9};
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 11, .alpha = 1.5, .is_signed = true};
  nn::SyntheticSpec wsp{.precision = 9, .alpha = 1.5, .is_signed = true};
  const nn::Tensor input = nn::make_activation_tensor(net.layer(0).in, act, 9, 1);
  const nn::Tensor weights =
      nn::make_weight_tensor(net.layer(0).weight_count(), wsp, 10, 2);

  FunctionalOptions fo{.jobs = 1};
  FunctionalLoomEngine fast(fo);
  fo.backend = "scalar";
  FunctionalLoomEngine slow(fo);
  const auto rf = fast.run_fc(net.layer(0), input, weights, 16);
  const auto rs = slow.run_fc(net.layer(0), input, weights, 16);
  const nn::WideTensor golden = nn::fc_forward(input, weights, net.layer(0));
  for (std::int64_t i = 0; i < golden.elements(); ++i) {
    ASSERT_EQ(rf.wide.flat(i), rs.wide.flat(i)) << i;
    ASSERT_EQ(rf.wide.flat(i), golden.flat(i)) << i;
  }
  EXPECT_EQ(rf.cycles, rs.cycles);
}

// ---- Fully-connected cycle model ------------------------------------------

TEST(BitsliceFcCycles, MatchCascadeAwareAnalyticModel) {
  // The functional FC cycle count must equal the analytic FC cycle model
  // (LoomSimulator's layer result) for a matching configuration (16x16
  // grid), up to the analytic model's kPipelineFill constant which the
  // functional counts exclude.
  nn::Network net("t", nn::Shape3{64, 1, 1});
  net.add_fc("f", 24);  // fewer outputs than SIPs: cascading must engage
  quant::PrecisionProfile p;
  p.network = "t";
  p.fc_weight = {11};
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 9, .alpha = 2.0, .is_signed = false};
  nn::SyntheticSpec wsp{.precision = 11, .alpha = 2.0, .is_signed = true};
  const nn::Tensor input = nn::make_activation_tensor(net.layer(0).in, act, 13, 1);
  const nn::Tensor weights =
      nn::make_weight_tensor(net.layer(0).weight_count(), wsp, 14, 2);

  FunctionalLoomEngine eng(FunctionalOptions{.jobs = 1});
  const auto run = eng.run_fc(net.layer(0), input, weights, 16);

  arch::LoomConfig cfg;
  cfg.equiv_macs = 16;  // rows() = 16 like the functional grid
  LoomSimulator sim(cfg, SimOptions{});
  NetworkWorkload wl(std::move(net), p);
  const LayerResult analytic = sim.run(wl).layers[0];
  EXPECT_EQ(run.cycles + kPipelineFill, analytic.compute_cycles);

  // Cascading must actually help a few-outputs layer: the plan picks
  // ways > 1 and beats the no-cascade count.
  const FcCascadePlan plan = plan_fc_cascade(16, 16, 16, 24, 64, 11.0, 16.0,
                                             /*cascading=*/true);
  const FcCascadePlan flat = plan_fc_cascade(16, 16, 16, 24, 64, 11.0, 16.0,
                                             /*cascading=*/false);
  EXPECT_GT(plan.ways, 1);
  EXPECT_LT(plan.cycles, flat.cycles);
}

// ---- Grid envelope --------------------------------------------------------

TEST(BitslicePrimitives, UnsupportedColumnCountsFallBackToScalar) {
  EXPECT_FALSE(supports(GridOptions{.cols = 65}));
  FunctionalLoomEngine eng(FunctionalOptions{.rows = 2, .cols = 65});
  EXPECT_EQ(eng.backend_name(), "scalar");

  // The fallback still computes correct results.
  nn::Network net("t", nn::Shape3{2, 5, 5});
  net.add_conv("c", 3, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "t";
  p.conv_act = {6};
  p.conv_weight = 7;
  quant::apply_profile(net, p);
  nn::SyntheticSpec act{.precision = 6, .alpha = 2.0, .is_signed = false};
  nn::SyntheticSpec wsp{.precision = 7, .alpha = 2.0, .is_signed = true};
  const nn::Tensor input = nn::make_activation_tensor(net.layer(0).in, act, 15, 1);
  const nn::Tensor weights =
      nn::make_weight_tensor(net.layer(0).weight_count(), wsp, 16, 2);
  const auto run = eng.run_conv(net.layer(0), input, weights, 16);
  const nn::WideTensor golden = nn::conv_forward(input, weights, net.layer(0));
  for (std::int64_t i = 0; i < golden.elements(); ++i) {
    ASSERT_EQ(run.wide.flat(i), golden.flat(i)) << i;
  }
}

}  // namespace
}  // namespace loom::sim
