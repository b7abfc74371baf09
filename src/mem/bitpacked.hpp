// Footprint accounting for bit-interleaved storage. Loom stores weights and
// activations packed to the per-layer precision (§3.2), so a layer's
// footprint is values x precision bits; the bit-parallel baseline always
// spends 16 bits per value.
#pragma once

#include <cstdint>

#include "common/bitops.hpp"

namespace loom::mem {

/// Bits to store `count` values at `precision` bits each (bit-interleaved;
/// rows padded to the `row_bits`-wide memory interface). The layout this
/// prices is the one arch::serialize materializes: with row_bits = 64 the
/// result is exactly that packing's word count times 64 (pinned by test,
/// so the accounting and the packing cannot drift apart).
[[nodiscard]] std::int64_t packed_bits(std::int64_t count, int precision,
                                       int row_bits = 2048);

/// Bits for the same values in the baseline's 16-bit layout.
[[nodiscard]] std::int64_t parallel_bits(std::int64_t count, int row_bits = 2048);

}  // namespace loom::mem
