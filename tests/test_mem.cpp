#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/serializer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mem/bitpacked.hpp"
#include "mem/dram.hpp"
#include "mem/hierarchy.hpp"

namespace loom::mem {
namespace {

// ---- Naive per-element references for the footprint math ------------------

std::int64_t naive_packed_bits(std::int64_t count, int precision,
                               int row_bits) {
  // Walk the bit-plane layout value by value: each plane fills rows of
  // row_bits, a new row starting whenever the previous is full.
  std::int64_t rows = 0;
  std::int64_t used = row_bits;  // forces a first row on the first value
  for (std::int64_t i = 0; i < count; ++i) {
    if (used == row_bits) {
      ++rows;
      used = 0;
    }
    ++used;
  }
  return rows * row_bits * precision;
}

std::int64_t naive_parallel_bits(std::int64_t count, int row_bits) {
  const std::int64_t per_row = row_bits / kBasePrecision;
  std::int64_t rows = 0;
  std::int64_t used = per_row;
  for (std::int64_t i = 0; i < count; ++i) {
    if (used == per_row) {
      ++rows;
      used = 0;
    }
    ++used;
  }
  return rows * row_bits;
}

TEST(Packed, PackedSmallerThanParallel) {
  // 2048 13-bit weights: the §3.2 example. Packed = 13 rows of 2048 bits.
  EXPECT_EQ(packed_bits(2048, 13), 13 * 2048);
  EXPECT_EQ(parallel_bits(2048), 16 * 2048);
}

TEST(Packed, SixteenBitsHasNoBenefit) {
  EXPECT_EQ(packed_bits(1 << 20, 16), parallel_bits(1 << 20));
}

TEST(Packed, RowPaddingAccounted) {
  // 100 values at 5 bits on a 2048-bit interface: one row per plane.
  EXPECT_EQ(packed_bits(100, 5), 5 * 2048);
}

TEST(Packed, InvalidArgsThrow) {
  EXPECT_THROW((void)packed_bits(10, 0), ContractViolation);
  EXPECT_THROW((void)packed_bits(-1, 8), ContractViolation);
}

TEST(Packed, BruteForceFootprintMatchesNaiveReference) {
  // Property sweep: the closed-form row arithmetic equals a per-element
  // walk of the layout for every (count, precision, row width).
  SequentialRng rng(7);
  for (int it = 0; it < 400; ++it) {
    const auto count = static_cast<std::int64_t>(rng.next_below(5000));
    const int precision = 1 + static_cast<int>(rng.next_below(16));
    const int row_bits = 1 << (6 + rng.next_below(6));  // 64 .. 2048
    EXPECT_EQ(packed_bits(count, precision, row_bits),
              naive_packed_bits(count, precision, row_bits))
        << count << "x" << precision << " rows " << row_bits;
    EXPECT_EQ(parallel_bits(count, row_bits),
              naive_parallel_bits(count, row_bits))
        << count << " rows " << row_bits;
    // On row-aligned counts the packed layout saves exactly the trimmed
    // planes relative to the 16-bit layout.
    const std::int64_t aligned = ceil_div(std::max<std::int64_t>(count, 1),
                                          row_bits) * row_bits;
    EXPECT_EQ(packed_bits(aligned, precision, row_bits) * 16,
              parallel_bits(aligned, row_bits) * precision);
  }
}

TEST(Packed, FootprintPricesTheRealBitplaneLayoutRoundTrip) {
  // Brute-force tie between the accounting and the packing the simulators
  // actually model: arch::serialize's plane-major words occupy exactly
  // packed_bits(count, precision, row_bits=64) bits — and the layout
  // round-trips losslessly, signed and unsigned, across precisions and
  // ragged (non-multiple-of-64) counts.
  SequentialRng rng(11);
  for (int it = 0; it < 200; ++it) {
    const auto count = 1 + static_cast<std::int64_t>(rng.next_below(300));
    const int precision = 1 + static_cast<int>(rng.next_below(16));
    const bool is_signed = rng.next_below(2) != 0;
    std::vector<Value> values(static_cast<std::size_t>(count));
    const std::int64_t lo = is_signed ? -(std::int64_t{1} << (precision - 1)) : 0;
    const std::int64_t hi = is_signed ? (std::int64_t{1} << (precision - 1)) - 1
                                      : (std::int64_t{1} << precision) - 1;
    for (auto& v : values) {
      v = static_cast<Value>(
          lo + static_cast<std::int64_t>(rng.next_below(
                   static_cast<std::uint64_t>(hi - lo + 1))));
    }
    const arch::BitPlanes planes = arch::serialize(values, precision);
    EXPECT_EQ(static_cast<std::int64_t>(planes.words().size()) * 64,
              packed_bits(count, precision, /*row_bits=*/64));
    const auto back = arch::deserialize(planes, is_signed);
    ASSERT_EQ(back.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(back[i], values[i])
          << "i=" << i << " precision=" << precision << " signed=" << is_signed;
    }
  }
}

TEST(Packed, FootprintBitplaneEdgeCases) {
  // Word boundaries and two's-complement extremes through the same tie.
  std::vector<Value> values(128, 0);
  values[0] = -1;                 // all ones in two's complement
  values[63] = 1;                 // word boundary
  values[64] = Value{0x7f};       // next word
  values[127] = Value{-128};
  const arch::BitPlanes planes = arch::serialize(values, 8);
  EXPECT_EQ(planes.words().size(), 8u * 2u);  // 8 planes x 2 words
  EXPECT_EQ(static_cast<std::int64_t>(planes.words().size()) * 64,
            packed_bits(128, 8, /*row_bits=*/64));
  const auto back = arch::deserialize(planes, true);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(back[i], values[i]) << i;
  }
}

TEST(Dram, PeakBandwidthMath) {
  DramChannel ch(DramConfig{.peak_gbps = 17.066, .efficiency = 1.0});
  EXPECT_NEAR(ch.bytes_per_cycle(), 17.066, 1e-9);
  // 17066 bytes at ~17 B/cycle -> ~1000 cycles.
  const auto cycles = ch.cycles_for_bits(17066 * 8);
  EXPECT_NEAR(static_cast<double>(cycles), 1000.0, 5.0);
}

TEST(Dram, EfficiencyScalesCycles) {
  DramChannel full(DramConfig{.efficiency = 1.0});
  DramChannel half(DramConfig{.efficiency = 0.5});
  const std::uint64_t bits = 1 << 20;
  EXPECT_NEAR(static_cast<double>(half.cycles_for_bits(bits)),
              2.0 * static_cast<double>(full.cycles_for_bits(bits)), 2.0);
}

TEST(Dram, BurstGranularityRoundsUp) {
  DramChannel ch(DramConfig{.peak_gbps = 8.0, .efficiency = 1.0,
                            .burst_bytes = 64});
  // 1 bit still costs a whole 64-byte burst.
  EXPECT_EQ(ch.cycles_for_bits(1), ch.cycles_for_bits(64 * 8));
  EXPECT_EQ(ch.cycles_for_bits(0), 0u);
}

TEST(Dram, InvalidConfigThrows) {
  EXPECT_THROW(DramChannel(DramConfig{.peak_gbps = -1.0}), ContractViolation);
  EXPECT_THROW(DramChannel(DramConfig{.efficiency = 0.0}), ContractViolation);
}

TEST(DefaultMemory, PaperSizing) {
  // §4.5: DPNN needs 2 MB of AM; Loom's packed storage needs 1 MB.
  const auto dpnn = default_memory_config(128, /*bit_packed=*/false);
  const auto lm = default_memory_config(128, /*bit_packed=*/true);
  EXPECT_EQ(dpnn.am_bytes, 2 << 20);
  EXPECT_EQ(lm.am_bytes, 1 << 20);
  // Figure 5 weight-memory labels: 512 KB at E=32 ... 8 MB at E=512.
  EXPECT_EQ(default_memory_config(32, true).wm_bytes, 512 << 10);
  EXPECT_EQ(default_memory_config(128, true).wm_bytes, 2 << 20);
  EXPECT_EQ(default_memory_config(512, true).wm_bytes, 8 << 20);
}

}  // namespace
}  // namespace loom::mem
