// SIP-grid tile: the functional model of Figure 2b. A conv block must
// compute exactly what the golden model computes for every (row, column)
// output, with the cycle count the paper's model predicts.
#include <gtest/gtest.h>

#include <vector>

#include "arch/tile.hpp"
#include "common/rng.hpp"

namespace loom::arch {
namespace {

std::vector<Value> random_vec(SequentialRng& rng, std::size_t n, int bits,
                              bool is_signed) {
  std::vector<Value> out(n);
  for (auto& v : out) {
    if (is_signed) {
      const std::int64_t range = std::int64_t{1} << bits;
      v = static_cast<Value>(
          static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(range))) -
          (range >> 1));
    } else {
      v = static_cast<Value>(rng.next_below(std::uint64_t{1} << bits));
    }
  }
  return out;
}

Wide dot(const std::vector<Value>& a, const std::vector<Value>& b) {
  Wide acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += Wide{a[i]} * b[i];
  return acc;
}

TEST(SipTile, TwoByTwoExampleFromPaper) {
  // Section 2's example engine: 2x2 subunits, 2 lanes, 2-bit data.
  SipTile tile(TileConfig{.rows = 2, .cols = 2, .lanes = 2});
  const std::vector<std::vector<Value>> acts = {{1, 2}, {3, 1}};
  const std::vector<std::vector<Value>> weights = {{1, 1}, {1, -2}};
  const auto result = tile.conv_block(acts, weights, /*pa=*/2, /*pw=*/2);
  EXPECT_EQ(result.outputs[0 * 2 + 0], dot(weights[0], acts[0]));
  EXPECT_EQ(result.outputs[0 * 2 + 1], dot(weights[0], acts[1]));
  EXPECT_EQ(result.outputs[1 * 2 + 0], dot(weights[1], acts[0]));
  EXPECT_EQ(result.outputs[1 * 2 + 1], dot(weights[1], acts[1]));
  // One chunk of 2 lanes: pa x pw cycles.
  EXPECT_EQ(result.cycles, 4u);
}

TEST(SipTile, MultiChunkLengths) {
  SipTile tile(TileConfig{.rows = 3, .cols = 2, .lanes = 4});
  SequentialRng rng(77);
  const std::size_t length = 11;  // 3 chunks of 4 lanes (last partial)
  std::vector<std::vector<Value>> acts(2), weights(3);
  for (auto& a : acts) a = random_vec(rng, length, 6, false);
  for (auto& w : weights) w = random_vec(rng, length, 5, true);
  const auto result = tile.conv_block(acts, weights, 7, 6);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(result.outputs[static_cast<std::size_t>(r) * 2 + c],
                dot(weights[static_cast<std::size_t>(r)],
                    acts[static_cast<std::size_t>(c)]))
          << r << "," << c;
    }
  }
  EXPECT_EQ(result.cycles, 3u * 7 * 6);
}

TEST(SipTile, PartialGridUse) {
  SipTile tile(TileConfig{.rows = 8, .cols = 8, .lanes = 16});
  SequentialRng rng(99);
  std::vector<std::vector<Value>> acts(3), weights(5);
  for (auto& a : acts) a = random_vec(rng, 16, 8, false);
  for (auto& w : weights) w = random_vec(rng, 16, 7, true);
  const auto result = tile.conv_block(acts, weights, 8, 8);
  for (std::size_t r = 0; r < weights.size(); ++r) {
    for (std::size_t c = 0; c < acts.size(); ++c) {
      EXPECT_EQ(result.outputs[r * 8 + c], dot(weights[r], acts[c]));
    }
  }
}

TEST(SipTile, SixteenBitWorstCase) {
  // With 16b/16b data the tile must still be exact (256 cycles per chunk).
  SipTile tile(TileConfig{.rows = 2, .cols = 1, .lanes = 4});
  SequentialRng rng(123);
  std::vector<std::vector<Value>> acts = {random_vec(rng, 4, 15, false)};
  std::vector<std::vector<Value>> weights = {random_vec(rng, 4, 15, true),
                                             random_vec(rng, 4, 15, true)};
  const auto result = tile.conv_block(acts, weights, 16, 16);
  EXPECT_EQ(result.outputs[0], dot(weights[0], acts[0]));
  EXPECT_EQ(result.outputs[1], dot(weights[1], acts[0]));
  EXPECT_EQ(result.cycles, 256u);
}

TEST(SipTile, CascadeEquivalentToSlicedInnerProduct) {
  // Slicing an inner product across 2 SIPs and summing the two partial
  // outputs (what the cascade daisy-chain does) equals computing it whole —
  // the §3.2 claim behind the few-outputs mode.
  SequentialRng rng(321);
  const auto a = random_vec(rng, 32, 7, false);
  const auto w = random_vec(rng, 32, 6, true);
  SipTile half(TileConfig{.rows = 1, .cols = 1, .lanes = 16});
  const auto p0 = half.conv_block({{a.begin(), a.begin() + 16}},
                                  {{w.begin(), w.begin() + 16}}, 7, 7);
  const auto p1 = half.conv_block({{a.begin() + 16, a.end()}},
                                  {{w.begin() + 16, w.end()}}, 7, 7);
  EXPECT_EQ(p0.outputs[0] + p1.outputs[0], dot(w, a));
}

}  // namespace
}  // namespace loom::arch
