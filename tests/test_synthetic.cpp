#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "golden.hpp"
#include "nn/synthetic.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/profiles.hpp"
#include "serve/model_registry.hpp"

namespace loom::nn {
namespace {

TEST(SyntheticSource, Deterministic) {
  SyntheticSpec spec{.precision = 8, .alpha = 2.0, .is_signed = true};
  const SyntheticSource a(1, 2, spec);
  const SyntheticSource b(1, 2, spec);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(a.at(i), b.at(i));
}

TEST(SyntheticSource, RespectsUnsignedPrecision) {
  SyntheticSpec spec{.precision = 6, .alpha = 1.0, .is_signed = false};
  const SyntheticSource src(3, 0, spec);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const Value v = src.at(i);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 63);
  }
}

TEST(SyntheticSource, RespectsSignedPrecision) {
  SyntheticSpec spec{.precision = 7, .alpha = 1.0, .is_signed = true};
  const SyntheticSource src(3, 1, spec);
  bool saw_negative = false;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const Value v = src.at(i);
    ASSERT_LE(needed_bits_signed(v), 7);
    saw_negative |= v < 0;
  }
  EXPECT_TRUE(saw_negative);
}

TEST(SyntheticSource, AttainsFullPrecisionWithHighProbability) {
  SyntheticSpec spec{.precision = 8, .alpha = 1.0, .is_signed = false};
  const SyntheticSource src(5, 0, spec);
  int max_bits = 0;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    max_bits = std::max(max_bits,
                        needed_bits_unsigned(static_cast<std::uint16_t>(src.at(i))));
  }
  EXPECT_EQ(max_bits, 8);
}

TEST(SyntheticSource, ZeroFractionProducesZeros) {
  SyntheticSpec spec{.precision = 8, .alpha = 1.0, .is_signed = false,
                     .zero_fraction = 0.5};
  const SyntheticSource src(7, 0, spec);
  int zeros = 0;
  constexpr int kN = 20000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    if (src.at(i) == 0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / kN, 0.5, 0.03);
}

TEST(SyntheticSource, LargerAlphaConcentratesTowardZero) {
  SyntheticSpec lo{.precision = 10, .alpha = 1.0, .is_signed = false};
  SyntheticSpec hi{.precision = 10, .alpha = 50.0, .is_signed = false};
  const SyntheticSource a(9, 0, lo);
  const SyntheticSource b(9, 0, hi);
  double mean_a = 0.0, mean_b = 0.0;
  constexpr int kN = 20000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    mean_a += a.at(i);
    mean_b += b.at(i);
  }
  EXPECT_GT(mean_a / kN, 10.0 * mean_b / kN);
}

TEST(SyntheticSource, TabulatedValuesMatchPowReference) {
  // The threshold table must reproduce the pow reference exactly: values
  // (zero gate and sign included) over a grid of specs, and every draw
  // within 64 of each threshold, where the guard band has to send the
  // lookup to magnitude_for_draw.
  const double alphas[] = {1.0,  1.0 + 0x1.0p-40, 1.5,   2.0,   3.0,    5.0, 10.0,
                           30.0, 46.0,            100.0, 109.0, 1000.0, 8.9e6};
  constexpr std::uint64_t kDraws = 20000;
  constexpr std::int64_t kDelta = 64;
  std::uint64_t stream = 0;
  for (const bool is_signed : {false, true}) {
    for (int p = 1; p <= 16; ++p) {
      for (const double alpha : alphas) {
        for (const double zero_fraction : {0.0, 0.45}) {
          const SyntheticSpec spec{.precision = p, .alpha = alpha,
                                   .is_signed = is_signed,
                                   .zero_fraction = zero_fraction};
          const SyntheticSource src(17, ++stream, spec);
          // A long-stream hint forces the table even at p = 16.
          const SyntheticStream bulk(src, std::int64_t{1} << 40);
          ASSERT_TRUE(bulk.tabulated());
          for (std::uint64_t i = 0; i < kDraws; ++i) {
            ASSERT_EQ(bulk.at(i), src.at(i))
                << "p=" << p << " signed=" << is_signed << " alpha=" << alpha
                << " zf=" << zero_fraction << " index " << i;
          }
          // Magnitudes depend on the largest magnitude and alpha only, and
          // signed p has the largest magnitude of unsigned p - 1 (both 1 at
          // p = 1): the unsigned tables cover every threshold.
          if (is_signed || zero_fraction != 0.0) continue;
          const int max = src.max_magnitude();
          std::int64_t mismatches = 0;
          std::int64_t first = -1;
          for (int m = 1; m <= max; ++m) {
            const double t = std::pow(static_cast<double>(m) / (max + 1), 1.0 / alpha);
            const auto base = static_cast<std::int64_t>(std::floor(t * 0x1.0p53));
            for (std::int64_t r = std::max<std::int64_t>(0, base - kDelta);
                 r <= std::min(base + kDelta, (std::int64_t{1} << 53) - 1); ++r) {
              const auto draw = static_cast<std::uint64_t>(r);
              if (bulk.magnitude(draw) !=
                  src.magnitude_for_draw(static_cast<double>(r) * 0x1.0p-53)) {
                if (mismatches++ == 0) first = r;
              }
            }
          }
          EXPECT_EQ(mismatches, 0) << "p=" << p << " alpha=" << alpha
                                   << " first mismatch at r=" << first;
        }
      }
    }
  }
}

TEST(SyntheticStream, BulkReadMatchesAt) {
  // read() must equal at() value for value over the pow-reference spec
  // grid. The grid reaches both kinds of AVX-512 lane: at p = 16, alpha = 1
  // every bucket holds a threshold's guard band (dirty, scalar fallback),
  // and at p <= 8 almost every bucket is clean (one gather). Unaligned
  // begins and odd lengths exercise the scalar tail, and the last begin
  // makes the index wrap past 2^64 inside the read.
  const double alphas[] = {1.0,  1.0 + 0x1.0p-40, 1.5,   2.0,   3.0,    5.0, 10.0,
                           30.0, 46.0,            100.0, 109.0, 1000.0, 8.9e6};
  const std::uint64_t begins[] = {0, 3, 1000001, ~std::uint64_t{0} - 1000};
  const std::size_t lengths[] = {0, 1, 15, 16, 17, 47, 2053};
  std::vector<Value> out;
  std::uint64_t stream = 0;
  for (const bool is_signed : {false, true}) {
    for (int p = 1; p <= 16; ++p) {
      for (const double alpha : alphas) {
        for (const double zero_fraction : {0.0, 0.45}) {
          const SyntheticSpec spec{.precision = p, .alpha = alpha,
                                   .is_signed = is_signed,
                                   .zero_fraction = zero_fraction};
          const SyntheticStream bulk(SyntheticSource(23, ++stream, spec),
                                     std::int64_t{1} << 40);
          ASSERT_TRUE(bulk.tabulated());
          for (const std::uint64_t begin : begins) {
            for (const std::size_t length : lengths) {
              out.assign(length, Value{0x5A5A});
              bulk.read(begin, out);
              for (std::size_t i = 0; i < length; ++i) {
                ASSERT_EQ(out[i], bulk.at(begin + i))
                    << "p=" << p << " signed=" << is_signed << " alpha=" << alpha
                    << " zf=" << zero_fraction << " begin " << begin << " + " << i;
              }
            }
          }
        }
      }
    }
  }
  // An untabulated stream reads through the source.
  const SyntheticSource src(3, 4, SyntheticSpec{.precision = 16, .alpha = 3.0});
  const SyntheticStream short_stream(src, 100);
  ASSERT_FALSE(short_stream.tabulated());
  out.assign(100, 0);
  short_stream.read(7, out);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], src.at(7 + i));
}

TEST(SyntheticSource, ShortStreamsSkipTheTable) {
  const SyntheticSpec spec{.precision = 16, .alpha = 3.0};
  const SyntheticSource src(3, 4, spec);
  EXPECT_FALSE(SyntheticStream(src, 65536).tabulated());
  const SyntheticStream bulk(src, 1000);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(bulk.at(i), src.at(i));
}

TEST(SyntheticSource, InvalidSpecThrows) {
  SyntheticSpec bad{.precision = 0};
  EXPECT_THROW(SyntheticSource(1, 1, bad), ContractViolation);
  SyntheticSpec bad_alpha{.precision = 4, .alpha = 0.5};
  EXPECT_THROW(SyntheticSource(1, 1, bad_alpha), ContractViolation);
}

TEST(MakeActivationTensor, MatchesSourceValues) {
  SyntheticSpec spec{.precision = 8, .alpha = 2.0, .is_signed = false};
  const Tensor t = make_activation_tensor(Shape3{2, 3, 4}, spec, 11, 5);
  const SyntheticSource src(11, 5, spec);
  EXPECT_EQ(t.elements(), 24);
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    EXPECT_EQ(t.flat(i), src.at(static_cast<std::uint64_t>(i)));
  }
}

TEST(MakeWeightTensor, FlatAndDeterministic) {
  SyntheticSpec spec{.precision = 9, .alpha = 3.0, .is_signed = true};
  const Tensor a = make_weight_tensor(100, spec, 13, 7);
  const Tensor b = make_weight_tensor(100, spec, 13, 7);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(a.flat(i), b.flat(i));
}

TEST(MakeWeightTensor, RegisteredZooWeightsArePinned) {
  // Digests of the weight tensors ModelRegistry::add_synthetic materializes
  // for NiN and AlexNet (61M weights) at seed 7, 100% profiles, captured
  // before the threshold-table bulk path.
  struct Pin {
    const char* network;
    std::uint64_t digest;
  };
  serve::ModelRegistry registry;
  for (const Pin pin : {Pin{"nin", 0x045a1773b3077bd5ull},
                        Pin{"alexnet", 0x35d0be739bacb85dull}}) {
    Network net = zoo::make(pin.network);
    const quant::PrecisionProfile profile =
        quant::profile_for(pin.network, quant::AccuracyTarget::k100);
    quant::apply_profile(net, profile);
    const auto model =
        registry.add_synthetic(pin.network, std::move(net), profile, 7);
    golden::Fnv fnv;
    for (const Tensor& w : model->weights) {
      fnv.i64(w.elements());
      fnv.bytes(w.data().data(), w.data().size_bytes());
    }
    EXPECT_EQ(fnv.h, pin.digest) << pin.network << " 0x" << std::hex << fnv.h;
  }
}

TEST(Streams, ActAndWeightStreamsDiffer) {
  EXPECT_NE(activation_stream(3), weight_stream(3));
  EXPECT_NE(activation_stream(3), activation_stream(4));
}

}  // namespace
}  // namespace loom::nn
