#include "sim/bitslice_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/cpuid.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/im2col.hpp"
#include "sim/gemm_engine.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LOOM_BITSLICE_X86 1
#endif

namespace loom::sim {

namespace {

// ---------------------------------------------------------------------------
// Accumulation machinery. Every partial product is a one-bit-per-column
// word x with a weight 2^t; summing millions of them exactly is the whole
// cost of the engine. Adding each word straight into a bit-sliced
// accumulator serializes on the carry chain, so instead:
//   1. collect: append x to a per-(sign, t) arena — a plain store;
//   2. reduce: sweep each arena with a Harley-Seal carry-save adder
//      (branch-free full adders; on AVX-512, VPTERNLOGQ computes an
//      8-word full adder in two instructions), leaving ones/twos/fours/
//      eights counters and appending the rare weight-16 carries to the
//      t+4 arena;
//   3. drain: fold the counters through a small scalar FA tree and ripple
//      the handful of survivors into the 64-word sliced accumulator.
// ---------------------------------------------------------------------------

/// Add a one-bit-per-column word into a bit-sliced accumulator at bit
/// `shift`: the classic ripple, used only for the few drained words.
inline void ripple_add(std::uint64_t* acc, int shift, std::uint64_t x) noexcept {
  int k = shift;
  while (x != 0) {
    const std::uint64_t carry = acc[k] & x;
    acc[k] ^= x;
    x = carry;
    ++k;
  }
}

/// Full adder over words: *sum = a+b+c mod 2 per bit, returns the carry.
inline std::uint64_t csa(std::uint64_t* sum, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) noexcept {
  const std::uint64_t u = a ^ b;
  *sum = u ^ c;
  return (a & b) | (u & c);
}

constexpr int kShifts = 64;       ///< arena shifts per sign: data <= 31,
                                  ///< carry headroom, and a power of two so
                                  ///< a packed NAF digit plus the plane bit
                                  ///< IS the arena slot (see kSidxBit)
constexpr int kStrideLog2 = 12;   ///< words per arena (power of two: the
                                  ///< append address needs no multiply)
constexpr int kStride = 1 << kStrideLog2;
constexpr int kFlushAt = kStride - 144;  ///< leaves spill/flush headroom

/// Max addend shift: plane 15 plus NAF digit 16 (the NAF of a magnitude
/// can carry one position past its top bit).
constexpr int kMaxShift = 2 * (kBasePrecision - 1) + 1;

/// Inner-product length bound for one output. Each of the `inner` lane
/// elements contributes less than 2^16 (activation) x 2^16 (NAF positive
/// or negative digit sum) = 2^32 to a column's pos (or neg) accumulator,
/// so totals stay below 2^(28+32) = 2^60: every nonzero arena slot, spill
/// and drain carry then sits strictly inside the 64-word slice and the
/// pos-neg difference is exact in int64, matching the scalar oracle.
constexpr std::int64_t kMaxInner = std::int64_t{1} << 28;

constexpr int kSidxBit = 6;  ///< sign bit position in an arena slot /
                             ///< packed NAF digit (kShifts == 1 << kSidxBit)

struct Accum {
  std::uint64_t* arena;    ///< [2][kShifts][kStride]
  std::int32_t* n;         ///< [2][kShifts]
  std::uint64_t* acc[2];   ///< sliced accumulators: pos, neg

  [[nodiscard]] std::uint64_t* words(int s, int t) const noexcept {
    return arena +
           (static_cast<std::size_t>((s << kSidxBit) | t) << kStrideLog2);
  }
  [[nodiscard]] std::int32_t& count(int s, int t) const noexcept {
    return n[(s << kSidxBit) | t];
  }
};

void reduce_arena(const Accum& ac, int s, int t);

/// Append one addend to arena `slot` = (sign << kSidxBit) | shift; reduces
/// the arena early when it fills.
inline void arena_add(const Accum& ac, int slot, std::uint64_t x) {
  std::int32_t& n = ac.n[slot];
  ac.arena[(static_cast<std::size_t>(slot) << kStrideLog2) + n] = x;
  if (++n >= kFlushAt) reduce_arena(ac, slot >> kSidxBit, slot & (kShifts - 1));
}

/// Scalar Harley-Seal sweep over w[0..k), k a multiple of 16. Updates the
/// four counter words and appends weight-16 carries to the t+4 arena.
void hs_sweep_scalar(const Accum& ac, int s, int t, const std::uint64_t* w,
                     std::int64_t k, std::uint64_t counters[4]) {
  std::uint64_t ones = counters[0], twos = counters[1];
  std::uint64_t fours = counters[2], eights = counters[3];
  for (std::int64_t i = 0; i < k; i += 16) {
    std::uint64_t twos_a, twos_b, fours_a, fours_b, eights_a, eights_b;
    twos_a = csa(&ones, ones, w[i + 0], w[i + 1]);
    twos_b = csa(&ones, ones, w[i + 2], w[i + 3]);
    fours_a = csa(&twos, twos, twos_a, twos_b);
    twos_a = csa(&ones, ones, w[i + 4], w[i + 5]);
    twos_b = csa(&ones, ones, w[i + 6], w[i + 7]);
    fours_b = csa(&twos, twos, twos_a, twos_b);
    eights_a = csa(&fours, fours, fours_a, fours_b);
    twos_a = csa(&ones, ones, w[i + 8], w[i + 9]);
    twos_b = csa(&ones, ones, w[i + 10], w[i + 11]);
    fours_a = csa(&twos, twos, twos_a, twos_b);
    twos_a = csa(&ones, ones, w[i + 12], w[i + 13]);
    twos_b = csa(&ones, ones, w[i + 14], w[i + 15]);
    fours_b = csa(&twos, twos, twos_a, twos_b);
    eights_b = csa(&fours, fours, fours_a, fours_b);
    const std::uint64_t c16 = csa(&eights, eights, eights_a, eights_b);
    if (c16 != 0) arena_add(ac, ((s << kSidxBit) | (t + 4)), c16);
  }
  counters[0] = ones;
  counters[1] = twos;
  counters[2] = fours;
  counters[3] = eights;
}

#if defined(LOOM_BITSLICE_X86)

__attribute__((target("avx512f"))) inline __m512i csa512(
    __m512i* sum, __m512i a, __m512i b, __m512i c) noexcept {
  // VPTERNLOGQ: imm 0x96 = a^b^c, imm 0xE8 = majority(a, b, c).
  const __m512i carry =
      _mm512_ternarylogic_epi64(a, b, c, 0xE8);
  *sum = _mm512_ternarylogic_epi64(a, b, c, 0x96);
  return carry;
}

/// AVX-512 Harley-Seal sweep over w[0..k), k a multiple of 128 (16 vectors
/// per iteration). Leaves 8 lanes per counter level in `counters32`.
__attribute__((target("avx512f"))) void hs_sweep_avx512(
    const Accum& ac, int s, int t, const std::uint64_t* w, std::int64_t k,
    std::uint64_t counters32[32]) {
  __m512i ones = _mm512_loadu_si512(counters32 + 0);
  __m512i twos = _mm512_loadu_si512(counters32 + 8);
  __m512i fours = _mm512_loadu_si512(counters32 + 16);
  __m512i eights = _mm512_loadu_si512(counters32 + 24);
  for (std::int64_t i = 0; i < k; i += 128) {
    const auto* v = reinterpret_cast<const __m512i*>(w + i);
    __m512i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sum;
    twos_a = csa512(&sum, ones, _mm512_loadu_si512(v + 0),
                    _mm512_loadu_si512(v + 1));
    ones = sum;
    twos_b = csa512(&sum, ones, _mm512_loadu_si512(v + 2),
                    _mm512_loadu_si512(v + 3));
    ones = sum;
    fours_a = csa512(&sum, twos, twos_a, twos_b);
    twos = sum;
    twos_a = csa512(&sum, ones, _mm512_loadu_si512(v + 4),
                    _mm512_loadu_si512(v + 5));
    ones = sum;
    twos_b = csa512(&sum, ones, _mm512_loadu_si512(v + 6),
                    _mm512_loadu_si512(v + 7));
    ones = sum;
    fours_b = csa512(&sum, twos, twos_a, twos_b);
    twos = sum;
    eights_a = csa512(&sum, fours, fours_a, fours_b);
    fours = sum;
    twos_a = csa512(&sum, ones, _mm512_loadu_si512(v + 8),
                    _mm512_loadu_si512(v + 9));
    ones = sum;
    twos_b = csa512(&sum, ones, _mm512_loadu_si512(v + 10),
                    _mm512_loadu_si512(v + 11));
    ones = sum;
    fours_a = csa512(&sum, twos, twos_a, twos_b);
    twos = sum;
    twos_a = csa512(&sum, ones, _mm512_loadu_si512(v + 12),
                    _mm512_loadu_si512(v + 13));
    ones = sum;
    twos_b = csa512(&sum, ones, _mm512_loadu_si512(v + 14),
                    _mm512_loadu_si512(v + 15));
    ones = sum;
    fours_b = csa512(&sum, twos, twos_a, twos_b);
    twos = sum;
    eights_b = csa512(&sum, fours, fours_a, fours_b);
    fours = sum;
    const __m512i c16 = csa512(&sum, eights, eights_a, eights_b);
    eights = sum;
    if (_mm512_test_epi64_mask(c16, c16) != 0) {
      // Spill the eight weight-16 carry lanes to the t+4 arena (zero lanes
      // are harmless addends; the arena has flush headroom for all eight).
      std::int32_t& nn = ac.count(s, t + 4);
      _mm512_storeu_si512(ac.words(s, t + 4) + nn, c16);
      nn += 8;
      if (nn >= kFlushAt) reduce_arena(ac, s, t + 4);
    }
  }
  _mm512_storeu_si512(counters32 + 0, ones);
  _mm512_storeu_si512(counters32 + 8, twos);
  _mm512_storeu_si512(counters32 + 16, fours);
  _mm512_storeu_si512(counters32 + 24, eights);
}

#endif  // LOOM_BITSLICE_X86

/// Reduce one (sign, t) arena into the sliced accumulator and reset it.
/// Weight-16 carries of the sweeps land in the t+4 arena, which is reduced
/// after this one by the ascending-t drain order (or by its own flush).
void reduce_arena(const Accum& ac, int s, int t) {
  std::int32_t& n = ac.count(s, t);
  std::int64_t k = n;
  if (k == 0) return;
  n = 0;
  std::uint64_t* w = ac.words(s, t);
  std::uint64_t* acc = ac.acc[s];

  // Counter lanes: [level][lane] with weight 2^(t+level).
  std::uint64_t counters32[32] = {0};
  std::int64_t done = 0;
  int lanes_used = 1;
#if defined(LOOM_BITSLICE_X86)
  if (common::have_avx512() && k >= 128) {
    const std::int64_t k128 = k & ~std::int64_t{127};
    hs_sweep_avx512(ac, s, t, w, k128, counters32);
    done = k128;
    lanes_used = 8;
  }
#endif
  if (k - done >= 16) {
    // Scalar sweep continues in lane 0 of each level.
    std::uint64_t c4[4] = {counters32[0], counters32[8], counters32[16],
                           counters32[24]};
    const std::int64_t k16 = (k - done) & ~std::int64_t{15};
    hs_sweep_scalar(ac, s, t, w + done, k16, c4);
    counters32[0] = c4[0];
    counters32[8] = c4[1];
    counters32[16] = c4[2];
    counters32[24] = c4[3];
    done += k16;
  }
  for (std::int64_t i = done; i < k; ++i) ripple_add(acc, t, w[i]);

  // Drain: FA-fold each level's lanes (plus carries from the level below)
  // to two words, ripple those, and promote the fold's carries upward.
  std::uint64_t carry[24];
  int n_carry = 0;
  for (int lvl = 0; lvl < 4; ++lvl) {
    std::uint64_t words[24];
    int m = 0;
    for (int j = 0; j < lanes_used; ++j) {
      const std::uint64_t v = counters32[lvl * 8 + j];
      if (v != 0) words[m++] = v;
    }
    for (int j = 0; j < n_carry; ++j) words[m++] = carry[j];
    n_carry = 0;
    while (m > 2) {
      std::uint64_t sum;
      const std::uint64_t c = csa(&sum, words[m - 3], words[m - 2], words[m - 1]);
      m -= 3;
      words[m++] = sum;
      if (c != 0) carry[n_carry++] = c;
    }
    for (int j = 0; j < m; ++j) ripple_add(acc, t + lvl, words[j]);
  }
  for (int j = 0; j < n_carry; ++j) ripple_add(acc, t + 4, carry[j]);
}

/// Sign-magnitude decode of a value truncated to `precision` streamed
/// planes. Returns the magnitude; sets `neg`.
inline std::uint32_t sign_magnitude(Value raw, int precision,
                                    bool* neg) noexcept {
  const auto uv = static_cast<std::uint32_t>(static_cast<std::uint16_t>(raw));
  const std::int32_t v =
      static_cast<std::int32_t>(uv << (32 - precision)) >> (32 - precision);
  *neg = v < 0;
  return static_cast<std::uint32_t>(
      *neg ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v));
}

/// Non-adjacent-form digits of a signed magnitude: ±mag = Σ ±2^shift with
/// ~25% fewer nonzero digits than plain binary for our weight
/// distributions. Each digit packs its shift with its final arena index
/// (operand sign folded with digit sign) so the append loop stays single:
/// entry = shift | (sidx << kSidxBit).
struct NafShifts {
  int digit[kBasePrecision + 2];
  int n = 0;
};

inline void naf_decode(std::uint32_t mag, bool negated, NafShifts* out) noexcept {
  const std::uint32_t m3 = mag + (mag << 1);
  std::uint32_t dp = (m3 & ~mag) >> 1;
  std::uint32_t dm = (mag & ~m3) >> 1;
  const int pos_idx = negated ? 1 << kSidxBit : 0;
  const int neg_idx = pos_idx ^ (1 << kSidxBit);
  out->n = 0;
  while (dp != 0) {
    out->digit[out->n++] = std::countr_zero(dp) | pos_idx;
    dp &= dp - 1;
  }
  while (dm != 0) {
    out->digit[out->n++] = std::countr_zero(dm) | neg_idx;
    dm &= dm - 1;
  }
}

}  // namespace

void transpose64(std::uint64_t a[64]) noexcept {
  // Butterfly swap in the LSB-first convention (element (i, j) = bit j of
  // a[i]): at each level swap the block whose row index has bit `j` clear /
  // column index has bit `j` set with its mirror.
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, m ^= (m << j)) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k + j] ^= t;
      a[k] ^= (t << j);
    }
  }
}

BitsliceEngine::BitsliceEngine(Options opts) : opts_(opts) {
  LOOM_EXPECTS(supports(opts));
  slab_windows_ = (64 / opts_.cols) * opts_.cols;
}

namespace {

/// Prepare an Accum view over the scratch buffers (allocated once, reused
/// across slabs — no steady-state allocation).
Accum make_accum(std::vector<std::uint64_t>& arena,
                 std::vector<std::int32_t>& arena_n, std::uint64_t* pos,
                 std::uint64_t* neg) {
  arena.resize(static_cast<std::size_t>(2) * kShifts * kStride);
  arena_n.assign(static_cast<std::size_t>(2) * kShifts, 0);
  Accum ac;
  ac.arena = arena.data();
  ac.n = arena_n.data();
  ac.acc[0] = pos;
  ac.acc[1] = neg;
  return ac;
}

/// Reduce every arena (ascending t so promoted carries are swept along)
/// and leave both sliced accumulators final.
void drain_all(const Accum& ac) {
  for (int s = 0; s < 2; ++s) {
    for (int t = 0; t < kShifts; ++t) reduce_arena(ac, s, t);
  }
}

}  // namespace

void BitsliceEngine::conv_slab(const nn::Layer& layer,
                               std::span<const nn::Tensor* const> inputs,
                               const nn::Tensor& weights,
                               const SliceSpec& spec, std::int64_t g,
                               std::int64_t slab,
                               std::span<nn::WideTensor* const> wides,
                               Scratch& scratch, ConvStats& stats) const {
  const int lanes = opts_.lanes;
  const int cols = opts_.cols;
  const std::int64_t inner = layer.inner_length();
  const std::int64_t windows = layer.windows();
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t ic_count = ceil_div(inner, lanes);
  const std::int64_t fb_count = ceil_div(cog, opts_.rows);
  // Batched runs concatenate every request's window range into one global
  // axis: slab columns cover [w0, w0 + cu) of it, and a column's request is
  // its global index / windows. Per-request segments are contiguous, so the
  // inner loops below walk them segment-wise — with one request the single
  // segment spans the whole slab and the walk is the pre-batch loop.
  const std::int64_t total_windows =
      windows * static_cast<std::int64_t>(inputs.size());
  const std::int64_t w0 = slab * slab_windows_;
  const std::int64_t cu =
      std::min<std::int64_t>(slab_windows_, total_windows - w0);
  const std::int64_t n_groups = ceil_div(cu, cols);

  const int profile = spec.act_precision;
  const int pw = spec.weight_precision;
  const auto prof_mask =
      static_cast<std::uint32_t>((std::uint32_t{1} << profile) - 1);
  const int act_neg_plane = spec.act_signed ? profile - 1 : -1;

  // ---- Phase 1: transpose this slab's activations to dense bit-plane
  // lists, one chunk at a time, ORing each column group's raw values (the
  // dispatcher's detector input) for the shared conv_stream_stats pass.
  scratch.plane_words.clear();
  scratch.plane_bits.clear();
  scratch.plane_begin.assign(static_cast<std::size_t>(ic_count * lanes) + 1, 0);

  const std::int64_t kh = layer.kernel_h;
  const std::int64_t kw = layer.kernel_w;
  scratch.group_or.assign(static_cast<std::size_t>(ic_count * n_groups), 0u);
  std::uint64_t planes[kBasePrecision];
  for (std::int64_t ic = 0; ic < ic_count; ++ic) {
    const std::int64_t n = std::min<std::int64_t>(lanes, inner - ic * lanes);
    std::uint32_t* group_or = scratch.group_or.data() + ic * n_groups;
    for (std::int64_t l = 0; l < n; ++l) {
      const std::int64_t flat = ic * lanes + l;
      // Hoist the kernel-position math: only the window varies below.
      const std::int64_t ci = flat / (kh * kw);
      const std::int64_t rem = flat % (kh * kw);
      const std::int64_t ky = rem / kw;
      const std::int64_t kx = rem % kw;
      const std::int64_t c_base =
          (g * layer.group_in_channels() + ci) * layer.in.h;
      std::memset(planes, 0, sizeof planes);
      std::uint32_t lane_or = 0;
      for (std::int64_t c0 = 0; c0 < cu;) {
        const std::int64_t gw = w0 + c0;
        const nn::Tensor& input =
            *inputs[static_cast<std::size_t>(gw / windows)];
        const std::int64_t win0 = gw % windows;
        const std::int64_t seg = std::min(cu - c0, windows - win0);
        for (std::int64_t k = 0; k < seg; ++k) {
          const std::int64_t window = win0 + k;
          const std::int64_t c = c0 + k;
          const std::int64_t iy =
              (window / layer.out.w) * layer.stride + ky - layer.pad;
          const std::int64_t ix =
              (window % layer.out.w) * layer.stride + kx - layer.pad;
          if (iy < 0 || iy >= layer.in.h || ix < 0 || ix >= layer.in.w) {
            continue;
          }
          const Value v = input.flat((c_base + iy) * layer.in.w + ix);
          const auto raw =
              static_cast<std::uint32_t>(static_cast<std::uint16_t>(v));
          // The OR detector inspects the raw value (it clamps to the profile
          // *after* the leading-one detection, like the scalar dispatcher);
          // the planes carry only the streamed bits.
          group_or[c / cols] |= raw;
          std::uint32_t bits = raw & prof_mask;
          lane_or |= bits;
          const std::uint64_t col_bit = std::uint64_t{1} << c;
          while (bits != 0) {
            planes[std::countr_zero(bits)] |= col_bit;
            bits &= bits - 1;
          }
        }
        c0 += seg;
      }
      while (lane_or != 0) {
        const int b = std::countr_zero(lane_or);
        lane_or &= lane_or - 1;
        scratch.plane_words.push_back(planes[b]);
        scratch.plane_bits.push_back(static_cast<std::uint8_t>(b));
      }
      scratch.plane_begin[static_cast<std::size_t>(flat) + 1] =
          static_cast<std::int32_t>(scratch.plane_words.size());
    }
    for (std::int64_t l = n; l < lanes; ++l) {
      scratch.plane_begin[static_cast<std::size_t>(ic * lanes + l) + 1] =
          static_cast<std::int32_t>(scratch.plane_words.size());
    }
  }
  conv_stream_stats(layer, spec, opts_, cu, scratch.group_or, stats);

  // ---- Phase 2: per filter row, every (plane word, weight magnitude bit)
  // pair is one partial-product addend at shift b + s; collect them into
  // the per-shift arenas, reduce, and transpose the sliced accumulators
  // back to per-column integers.
  //
  // Weights are applied in sign-magnitude form: w = ±|w| contributes its
  // magnitude bits with the whole product's sign folded into the pos/neg
  // accumulator choice. This commutes with the SIP's two's-complement MSB
  // negation pass — the exact integer pos-neg difference is identical —
  // while negative weights touch ~half the planes their two's-complement
  // encoding (all high bits set) would.
  const Accum ac = make_accum(scratch.arena, scratch.arena_n, scratch.pos, scratch.neg);
  const std::uint64_t* dw = scratch.plane_words.data();
  const std::uint8_t* dbit = scratch.plane_bits.data();
  const std::int32_t* dbegin = scratch.plane_begin.data();

  for (std::int64_t fb = 0; fb < fb_count; ++fb) {
    const std::int64_t rows_used =
        std::min<std::int64_t>(opts_.rows, cog - fb * opts_.rows);
    for (std::int64_t r = 0; r < rows_used; ++r) {
      const std::int64_t co = g * cog + fb * opts_.rows + r;
      std::memset(scratch.pos, 0, sizeof scratch.pos);
      std::memset(scratch.neg, 0, sizeof scratch.neg);
      const std::int64_t wrow = co * inner;
      for (std::int64_t ic = 0; ic < ic_count; ++ic) {
        const std::int64_t n = std::min<std::int64_t>(lanes, inner - ic * lanes);
        for (std::int64_t l = 0; l < n; ++l) {
          const std::int64_t flat = ic * lanes + l;
          bool w_neg = false;
          const std::uint32_t mag =
              sign_magnitude(weights.flat(wrow + flat), pw, &w_neg);
          if (mag == 0) continue;
          NafShifts sh;
          naf_decode(mag, w_neg, &sh);
          const std::int32_t e1 = dbegin[flat + 1];
          if (act_neg_plane < 0) {
            // Unsigned activations (the Loom conv path): the packed digit
            // plus the plane bit is the arena slot.
            for (std::int32_t e = dbegin[flat]; e < e1; ++e) {
              const int b = dbit[e];
              const std::uint64_t x = dw[e];
              for (int i = 0; i < sh.n; ++i) {
                arena_add(ac, sh.digit[i] + b, x);
              }
            }
          } else {
            for (std::int32_t e = dbegin[flat]; e < e1; ++e) {
              const int b = dbit[e];
              const std::uint64_t x = dw[e];
              const int flip = b == act_neg_plane ? 1 << kSidxBit : 0;
              for (int i = 0; i < sh.n; ++i) {
                arena_add(ac, (sh.digit[i] + b) ^ flip, x);
              }
            }
          }
        }
      }
      drain_all(ac);
      transpose64(scratch.pos);
      transpose64(scratch.neg);
      for (std::int64_t c0 = 0; c0 < cu;) {
        const std::int64_t gw = w0 + c0;
        nn::WideTensor& wide = *wides[static_cast<std::size_t>(gw / windows)];
        const std::int64_t win0 = gw % windows;
        const std::int64_t seg = std::min(cu - c0, windows - win0);
        for (std::int64_t k = 0; k < seg; ++k) {
          const std::int64_t window = win0 + k;
          wide.at3(co, window / layer.out.w, window % layer.out.w) =
              static_cast<Wide>(scratch.pos[c0 + k]) -
              static_cast<Wide>(scratch.neg[c0 + k]);
        }
        c0 += seg;
      }
    }
  }
}

BitsliceEngine::ConvStats BitsliceEngine::run_conv(const nn::Layer& layer,
                                                   const nn::Tensor& input,
                                                   const nn::Tensor& weights,
                                                   const SliceSpec& spec,
                                                   nn::WideTensor& wide) {
  const nn::Tensor* const inputs[] = {&input};
  nn::WideTensor* const wides[] = {&wide};
  return run_conv_batch(layer, inputs, weights, spec, wides);
}

BitsliceEngine::ConvStats BitsliceEngine::run_conv_batch(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const nn::Tensor& weights, const SliceSpec& spec,
    std::span<nn::WideTensor* const> wides) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
  LOOM_EXPECTS(spec.act_precision >= 1 && spec.act_precision <= kBasePrecision);
  LOOM_EXPECTS(spec.weight_precision >= 1 &&
               spec.weight_precision <= kBasePrecision);
  // The activation sign pass negates the MSB plane, which is only defined
  // for full-width streaming; dynamic trimming is an unsigned-OR detector.
  LOOM_EXPECTS(!spec.act_signed || spec.act_precision == kBasePrecision);
  LOOM_EXPECTS(!(spec.act_signed && spec.dynamic));
  // Every carry must stay inside the 64-word slice (see kMaxInner).
  LOOM_EXPECTS(layer.inner_length() < kMaxInner);

  const std::int64_t total_windows =
      layer.windows() * static_cast<std::int64_t>(inputs.size());
  const std::int64_t slab_count = ceil_div(total_windows, slab_windows_);
  const std::int64_t tasks = layer.groups * slab_count;
  const std::size_t jobs = resolve_jobs(opts_.jobs);
  const std::size_t stripes =
      std::min<std::size_t>(jobs, static_cast<std::size_t>(tasks));

  std::vector<ConvStats> stripe_stats(std::max<std::size_t>(stripes, 1));
  const auto run_stripe = [&](std::size_t s, Scratch& scratch) {
    const auto lo = static_cast<std::int64_t>(
        (static_cast<std::size_t>(tasks) * s) / stripes);
    const auto hi = static_cast<std::int64_t>(
        (static_cast<std::size_t>(tasks) * (s + 1)) / stripes);
    for (std::int64_t t = lo; t < hi; ++t) {
      conv_slab(layer, inputs, weights, spec, t / slab_count, t % slab_count,
                wides, scratch, stripe_stats[s]);
    }
  };

  if (stripes <= 1) {
    Scratch scratch;
    run_stripe(0, scratch);
  } else {
    // (group, slab) tasks write disjoint output windows, so stripes only
    // share read-only inputs; stats are reduced deterministically below
    // (integer-valued, so the sum is order-independent and exact).
    std::vector<Scratch> scratches(stripes);
    shared_pool().parallel_for(
        stripes, [&](std::size_t s) { run_stripe(s, scratches[s]); });
  }

  ConvStats total;
  for (const ConvStats& s : stripe_stats) total += s;
  return total;
}

void BitsliceEngine::fc_slab(const nn::Layer& layer, const nn::Tensor& input,
                             const nn::Tensor& weights, int weight_precision,
                             std::int64_t slab, nn::WideTensor& wide,
                             Scratch& scratch) const {
  const int lanes = opts_.lanes;
  const std::int64_t ci = layer.in.elements();
  const std::int64_t co0 = slab * 64;
  const std::int64_t cu = std::min<std::int64_t>(64, layer.out.c - co0);
  const auto w_mask =
      static_cast<std::uint32_t>((std::uint32_t{1} << weight_precision) - 1);
  const int w_msb_bit = weight_precision - 1;

  const Accum ac = make_accum(scratch.arena, scratch.arena_n, scratch.pos, scratch.neg);
  std::memset(scratch.pos, 0, sizeof scratch.pos);
  std::memset(scratch.neg, 0, sizeof scratch.neg);

  // Weight bit-planes of one chunk: [lane][weight bit] -> 64-output word.
  std::uint64_t wplanes[32][kBasePrecision];
  std::uint32_t wb_mask[32];

  for (std::int64_t base = 0; base < ci; base += lanes) {
    const std::int64_t n = std::min<std::int64_t>(lanes, ci - base);
    std::memset(wplanes, 0,
                static_cast<std::size_t>(n) * kBasePrecision * sizeof(std::uint64_t));
    std::fill(wb_mask, wb_mask + n, 0u);
    for (std::int64_t c = 0; c < cu; ++c) {
      const std::int64_t wbase = (co0 + c) * ci + base;
      const std::uint64_t col_bit = std::uint64_t{1} << c;
      for (std::int64_t l = 0; l < n; ++l) {
        std::uint32_t wv =
            static_cast<std::uint16_t>(weights.flat(wbase + l)) & w_mask;
        wb_mask[l] |= wv;
        while (wv != 0) {
          wplanes[l][std::countr_zero(wv)] |= col_bit;
          wv &= wv - 1;
        }
      }
    }
    for (std::int64_t l = 0; l < n; ++l) {
      // Signed 16-bit activations in NAF sign-magnitude form: the product
      // sign (activation digit sign XOR weight MSB pass) picks the
      // accumulator, which commutes exactly with the SIP's b == 15
      // sign-pass negation.
      bool a_neg = false;
      const std::uint32_t mag =
          sign_magnitude(input.flat(base + l), kBasePrecision, &a_neg);
      if (mag == 0) continue;
      NafShifts sh;
      naf_decode(mag, a_neg, &sh);
      std::uint32_t wm = wb_mask[l];
      while (wm != 0) {
        const int wb = std::countr_zero(wm);
        wm &= wm - 1;
        const std::uint64_t x = wplanes[l][wb];
        const int flip = wb == w_msb_bit ? 1 << kSidxBit : 0;
        for (int i = 0; i < sh.n; ++i) {
          arena_add(ac, (sh.digit[i] + wb) ^ flip, x);
        }
      }
    }
  }

  drain_all(ac);
  transpose64(scratch.pos);
  transpose64(scratch.neg);
  for (std::int64_t c = 0; c < cu; ++c) {
    wide.set_flat(co0 + c, static_cast<Wide>(scratch.pos[c]) -
                               static_cast<Wide>(scratch.neg[c]));
  }
}

void BitsliceEngine::fc_batch_planes(const nn::Layer& layer,
                                     std::span<const nn::Tensor* const> inputs,
                                     std::int64_t slab,
                                     Scratch& scratch) const {
  const std::int64_t ci = layer.in.elements();
  const std::int64_t r0 = slab * 64;
  const std::int64_t ru =
      std::min<std::int64_t>(64, static_cast<std::int64_t>(inputs.size()) - r0);

  // Transpose the slab's activations to dense bit-plane lists — bit r of a
  // plane word is that activation bit of request r0 + r. Built once per
  // slab; every output neuron's weight walk reads them concurrently.
  scratch.plane_words.clear();
  scratch.plane_bits.clear();
  scratch.plane_begin.assign(static_cast<std::size_t>(ci) + 1, 0);
  std::uint64_t planes[kBasePrecision];
  for (std::int64_t flat = 0; flat < ci; ++flat) {
    std::memset(planes, 0, sizeof planes);
    std::uint32_t lane_or = 0;
    for (std::int64_t r = 0; r < ru; ++r) {
      const Value v = inputs[static_cast<std::size_t>(r0 + r)]->flat(flat);
      std::uint32_t bits =
          static_cast<std::uint32_t>(static_cast<std::uint16_t>(v));
      lane_or |= bits;
      const std::uint64_t col_bit = std::uint64_t{1} << r;
      while (bits != 0) {
        planes[std::countr_zero(bits)] |= col_bit;
        bits &= bits - 1;
      }
    }
    while (lane_or != 0) {
      const int b = std::countr_zero(lane_or);
      lane_or &= lane_or - 1;
      scratch.plane_words.push_back(planes[b]);
      scratch.plane_bits.push_back(static_cast<std::uint8_t>(b));
    }
    scratch.plane_begin[static_cast<std::size_t>(flat) + 1] =
        static_cast<std::int32_t>(scratch.plane_words.size());
  }
}

void BitsliceEngine::fc_batch_neurons(const nn::Layer& layer,
                                      const nn::Tensor& weights,
                                      int weight_precision, std::int64_t slab,
                                      std::span<nn::WideTensor* const> wides,
                                      const Scratch& planes, Scratch& acc_s,
                                      std::int64_t co_lo,
                                      std::int64_t co_hi) const {
  const std::int64_t ci = layer.in.elements();
  const std::int64_t r0 = slab * 64;
  const std::int64_t ru =
      std::min<std::int64_t>(64, static_cast<std::int64_t>(wides.size()) - r0);
  constexpr int kActNegPlane = kBasePrecision - 1;

  // Per output neuron, one NAF sign-magnitude weight walk over the plane
  // lists accumulates the whole batch at once. The signed 16-bit activation
  // MSB plane flips the accumulator sign, commuting exactly with the SIP
  // sign pass; pos - neg is the exact inner product per request. Neurons
  // are independent, so ranges stripe freely with private arenas.
  const Accum ac = make_accum(acc_s.arena, acc_s.arena_n, acc_s.pos, acc_s.neg);
  const std::uint64_t* dw = planes.plane_words.data();
  const std::uint8_t* dbit = planes.plane_bits.data();
  const std::int32_t* dbegin = planes.plane_begin.data();
  for (std::int64_t co = co_lo; co < co_hi; ++co) {
    std::memset(acc_s.pos, 0, sizeof acc_s.pos);
    std::memset(acc_s.neg, 0, sizeof acc_s.neg);
    const std::int64_t wrow = co * ci;
    for (std::int64_t flat = 0; flat < ci; ++flat) {
      bool w_neg = false;
      const std::uint32_t mag =
          sign_magnitude(weights.flat(wrow + flat), weight_precision, &w_neg);
      if (mag == 0) continue;
      NafShifts sh;
      naf_decode(mag, w_neg, &sh);
      const std::int32_t e1 = dbegin[flat + 1];
      for (std::int32_t e = dbegin[flat]; e < e1; ++e) {
        const int b = dbit[e];
        const std::uint64_t x = dw[e];
        const int flip = b == kActNegPlane ? 1 << kSidxBit : 0;
        for (int i = 0; i < sh.n; ++i) {
          arena_add(ac, (sh.digit[i] + b) ^ flip, x);
        }
      }
    }
    drain_all(ac);
    transpose64(acc_s.pos);
    transpose64(acc_s.neg);
    for (std::int64_t r = 0; r < ru; ++r) {
      wides[static_cast<std::size_t>(r0 + r)]->set_flat(
          co, static_cast<Wide>(acc_s.pos[r]) -
                  static_cast<Wide>(acc_s.neg[r]));
    }
  }
}

void BitsliceEngine::run_fc_batch(const nn::Layer& layer,
                                  std::span<const nn::Tensor* const> inputs,
                                  const nn::Tensor& weights,
                                  int weight_precision,
                                  std::span<nn::WideTensor* const> wides) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kFullyConnected);
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
  LOOM_EXPECTS(weight_precision >= 1 && weight_precision <= kBasePrecision);
  LOOM_EXPECTS(layer.in.elements() < kMaxInner);

  // Small batches fill too few request lanes for the packed layout to
  // amortize its per-neuron weight walk — measured break-even on FC tails
  // is ~8 requests — so they run the 64-outputs-per-word solo layout
  // instead. Either way the accumulators are exact and byte-identical.
  constexpr std::size_t kPackThreshold = 8;
  if (inputs.size() < kPackThreshold) {
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      run_fc(layer, *inputs[r], weights, weight_precision, *wides[r]);
    }
    return;
  }

  // A request-slab's plane lists build once, then the per-neuron walk —
  // the dominant cost — stripes over the pool: neurons are independent, so
  // any batch (not just > 64 requests) scales with jobs.
  const auto batch = static_cast<std::int64_t>(inputs.size());
  const std::int64_t slab_count = ceil_div(batch, std::int64_t{64});
  const std::size_t stripes = std::min<std::size_t>(
      resolve_jobs(opts_.jobs), static_cast<std::size_t>(layer.out.c));
  Scratch planes;
  std::vector<Scratch> scratches(stripes > 1 ? stripes : 1);
  for (std::int64_t slab = 0; slab < slab_count; ++slab) {
    fc_batch_planes(layer, inputs, slab, planes);
    const auto run_stripe = [&](std::size_t s) {
      const auto lo = static_cast<std::int64_t>(
          (static_cast<std::size_t>(layer.out.c) * s) / stripes);
      const auto hi = static_cast<std::int64_t>(
          (static_cast<std::size_t>(layer.out.c) * (s + 1)) / stripes);
      fc_batch_neurons(layer, weights, weight_precision, slab, wides, planes,
                       scratches[s], lo, hi);
    };
    if (stripes <= 1) {
      run_stripe(0);
    } else {
      shared_pool().parallel_for(stripes, run_stripe);
    }
  }
}

void BitsliceEngine::run_fc(const nn::Layer& layer, const nn::Tensor& input,
                            const nn::Tensor& weights, int weight_precision,
                            nn::WideTensor& wide) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kFullyConnected);
  LOOM_EXPECTS(weight_precision >= 1 && weight_precision <= kBasePrecision);
  LOOM_EXPECTS(layer.in.elements() < kMaxInner);

  const std::int64_t slab_count = ceil_div(layer.out.c, std::int64_t{64});
  const std::size_t jobs = resolve_jobs(opts_.jobs);
  const std::size_t stripes =
      std::min<std::size_t>(jobs, static_cast<std::size_t>(slab_count));

  const auto run_stripe = [&](std::size_t s, Scratch& scratch) {
    const auto lo = static_cast<std::int64_t>(
        (static_cast<std::size_t>(slab_count) * s) / stripes);
    const auto hi = static_cast<std::int64_t>(
        (static_cast<std::size_t>(slab_count) * (s + 1)) / stripes);
    for (std::int64_t slab = lo; slab < hi; ++slab) {
      fc_slab(layer, input, weights, weight_precision, slab, wide, scratch);
    }
  };

  if (stripes <= 1) {
    Scratch scratch;
    run_stripe(0, scratch);
  } else {
    std::vector<Scratch> scratches(stripes);
    shared_pool().parallel_for(
        stripes, [&](std::size_t s) { run_stripe(s, scratches[s]); });
  }
}

}  // namespace loom::sim
