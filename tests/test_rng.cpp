// Counter-based RNG: determinism is load-bearing (the whole synthetic
// workload system assumes element i of a stream is a pure function).
#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace loom {
namespace {

TEST(CounterRng, DeterministicAcrossInstances) {
  const CounterRng a(42, 7);
  const CounterRng b(42, 7);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.bits(i), b.bits(i));
  }
}

TEST(CounterRng, StreamsAreIndependent) {
  const CounterRng a(42, 1);
  const CounterRng b(42, 2);
  int collisions = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (a.bits(i) == b.bits(i)) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(CounterRng, SeedsAreIndependent) {
  const CounterRng a(1, 0);
  const CounterRng b(2, 0);
  int collisions = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (a.bits(i) == b.bits(i)) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(CounterRng, UniformInUnitInterval) {
  const CounterRng rng(7, 0);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform(static_cast<std::uint64_t>(i));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(CounterRng, BelowStaysInRange) {
  const CounterRng rng(9, 3);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (std::uint64_t i = 0; i < 500; ++i) {
      EXPECT_LT(rng.below(i, n), n);
    }
  }
  EXPECT_EQ(rng.below(0, 0), 0u);
}

TEST(CounterRng, BelowCoversRange) {
  const CounterRng rng(11, 0);
  bool seen[8] = {};
  for (std::uint64_t i = 0; i < 400; ++i) seen[rng.below(i, 8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SequentialRng, AdvancesCounter) {
  SequentialRng rng(21);
  const auto a = rng.next_bits();
  const auto b = rng.next_bits();
  EXPECT_NE(a, b);
}

TEST(Mix64, AvalancheSmoke) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    total += std::popcount(mix64(0x1234567890ABCDEFull) ^
                           mix64(0x1234567890ABCDEFull ^ (1ull << bit)));
  }
  const double avg = total / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

}  // namespace
}  // namespace loom
