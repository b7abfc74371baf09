#include "sim/lut_engine.hpp"

#include <algorithm>
#include <climits>
#include <cstring>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/im2col.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LOOM_LUT_X86 1
#endif

namespace loom::sim {

namespace {

/// Inner-product length bound shared with the bit-sliced engine: each
/// 8-activation group contributes |partial| <= 8 * 2^16 * 2^15 < 2^34, so
/// inner < 2^28 keeps every int64 accumulator exact (< 2^59).
constexpr std::int64_t kMaxInner = std::int64_t{1} << 28;

/// Groups whose detected activation magnitude needs <= 12 unsigned bits
/// (or whose signed magnitudes sum below 2^15) have all 256 partial sums
/// inside int16 — the tables the hot loop touches shrink by half.
constexpr std::int32_t kNarrowLimit = 32767;

inline std::int32_t sext16(std::uint32_t raw) noexcept {
  return static_cast<std::int32_t>(
      static_cast<std::int16_t>(static_cast<std::uint16_t>(raw)));
}

/// Pack the pw 1-bit weight slices of one 8-element group into `out[b]`
/// (bit j of out[b] = bit b of weights w[j] masked to pw bits). Cost is
/// proportional to the set bits, so low-Pw rows pack in a handful of ops.
inline void pack_group_slices(const nn::Tensor& weights, std::int64_t base,
                              std::int64_t navail, std::uint32_t w_mask,
                              std::uint8_t* out, int pw) noexcept {
  std::memset(out, 0, static_cast<std::size_t>(pw));
  for (std::int64_t j = 0; j < navail; ++j) {
    std::uint32_t wv =
        static_cast<std::uint16_t>(weights.flat(base + j)) & w_mask;
    const auto jbit = static_cast<std::uint8_t>(1u << j);
    while (wv != 0) {
      out[std::countr_zero(wv)] |= jbit;
      wv &= wv - 1;
    }
  }
}

/// Doubling fill of one 256-entry partial-sum table: lut[m | 1<<j] =
/// lut[m] + a[j]. One add per entry; the stride-j inner runs vectorize.
template <typename T>
inline void build_table(const std::int32_t* a, T* lut) noexcept {
  lut[0] = 0;
  for (int j = 0; j < 8; ++j) {
    const int step = 1 << j;
    const T aj = static_cast<T>(a[j]);
    for (int i = 0; i < step; ++i) {
      lut[step + i] = static_cast<T>(lut[i] + aj);
    }
  }
}

/// The signed-weight decomposition: u = raw & (2^pw - 1) has value
/// u - msb * 2^pw, so the group inner product is the plain-binary slice sum
/// with the MSB slice's net coefficient flipped to -2^(pw-1).
template <typename T>
inline std::int64_t group_lookup(const T* lut, const std::uint8_t* wb,
                                 int pw) noexcept {
  const int msb = pw - 1;
  std::int64_t partial =
      -(static_cast<std::int64_t>(lut[wb[msb]]) << msb);
  for (int b = 0; b < msb; ++b) {
    partial += static_cast<std::int64_t>(lut[wb[b]]) << b;
  }
  return partial;
}

/// Scalar lookup walk over n tables — the tail/fallback the vector paths
/// defer to (and the whole story below kAvx2).
template <typename T>
inline std::int64_t accumulate_scalar(const T* luts, const std::uint8_t* w,
                                      const std::int32_t* bidx, std::int64_t n,
                                      int pw) noexcept {
  std::int64_t sum = 0;
  for (std::int64_t t = 0; t < n; ++t) {
    sum += group_lookup(luts + t * 256, w + bidx[t], pw);
  }
  return sum;
}

#if defined(LOOM_LUT_X86)

// GCC 12 reports spurious "'__Y' may be used uninitialized" against the
// shift/extract intrinsics below: their header definitions pass
// _mm512_undefined_epi32() as a never-read pass-through operand (GCC
// PR 105593). Scoped to the vector kernels only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

// ---------------------------------------------------------------------------
// Vector table build. The doubling fill's stride-j inner loop is a pure
// broadcast-add: lut[step+i] = lut[i] + a[j] for i < step — so once step
// reaches the vector width the fill runs width entries per op. Wrapping
// int16 adds (_mm256_add_epi16) match the scalar static_cast<T> truncation
// exactly; in practice narrow tables never wrap (sum_abs <= 32767 by
// construction).

// The table head is built entirely in a register: entry m is the subset sum
// of the a[j] whose bit is set in m, so lane m accumulates a[j] exactly when
// bit j of its index is set — one masked broadcast-add per j, no scalar
// stores. This matters more than the wide fill itself: a scalar head of
// 2-byte stores re-read by the first wide load defeats store-to-load
// forwarding and stalls every table build. Once the head is stored at
// vector width, the remaining doubling loads hit same-width same-offset
// stores and forward cleanly.

__attribute__((target("avx2"))) void build_table_i16_avx2(
    const std::int32_t* a, std::int16_t* lut) noexcept {
  // Index-bit masks for lanes 0..15 (setr: lane 0 first).
  const __m256i m0 = _mm256_setr_epi16(0, -1, 0, -1, 0, -1, 0, -1,
                                       0, -1, 0, -1, 0, -1, 0, -1);
  const __m256i m1 = _mm256_setr_epi16(0, 0, -1, -1, 0, 0, -1, -1,
                                       0, 0, -1, -1, 0, 0, -1, -1);
  const __m256i m2 = _mm256_setr_epi16(0, 0, 0, 0, -1, -1, -1, -1,
                                       0, 0, 0, 0, -1, -1, -1, -1);
  const __m256i m3 = _mm256_setr_epi16(0, 0, 0, 0, 0, 0, 0, 0,
                                       -1, -1, -1, -1, -1, -1, -1, -1);
  __m256i v = _mm256_and_si256(_mm256_set1_epi16(static_cast<short>(a[0])), m0);
  v = _mm256_add_epi16(
      v, _mm256_and_si256(_mm256_set1_epi16(static_cast<short>(a[1])), m1));
  v = _mm256_add_epi16(
      v, _mm256_and_si256(_mm256_set1_epi16(static_cast<short>(a[2])), m2));
  v = _mm256_add_epi16(
      v, _mm256_and_si256(_mm256_set1_epi16(static_cast<short>(a[3])), m3));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lut), v);
  for (int j = 4; j < 8; ++j) {
    const int step = 1 << j;
    const __m256i aj = _mm256_set1_epi16(static_cast<short>(a[j]));
    for (int i = 0; i < step; i += 16) {
      const __m256i w =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lut + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lut + step + i),
                          _mm256_add_epi16(w, aj));
    }
  }
}

__attribute__((target("avx512f,avx512bw"))) void build_table_i16_avx512(
    const std::int32_t* a, std::int16_t* lut) noexcept {
  // Entries 0..31 in one zmm: lane m gains a[j] iff bit j of m is set
  // (maskz_set1 = broadcast-where-bit-set, zero elsewhere).
  __m512i v =
      _mm512_maskz_set1_epi16(0xAAAAAAAAu, static_cast<short>(a[0]));
  v = _mm512_add_epi16(
      v, _mm512_maskz_set1_epi16(0xCCCCCCCCu, static_cast<short>(a[1])));
  v = _mm512_add_epi16(
      v, _mm512_maskz_set1_epi16(0xF0F0F0F0u, static_cast<short>(a[2])));
  v = _mm512_add_epi16(
      v, _mm512_maskz_set1_epi16(0xFF00FF00u, static_cast<short>(a[3])));
  v = _mm512_add_epi16(
      v, _mm512_maskz_set1_epi16(0xFFFF0000u, static_cast<short>(a[4])));
  _mm512_storeu_si512(reinterpret_cast<void*>(lut), v);
  // Doubling fill register-resident: entries [2^j, 2^(j+1)) = low half +
  // a[j], so every step is adds on live zmms — no loads at all.
  const __m512i a5 = _mm512_set1_epi16(static_cast<short>(a[5]));
  const __m512i a6 = _mm512_set1_epi16(static_cast<short>(a[6]));
  const __m512i a7 = _mm512_set1_epi16(static_cast<short>(a[7]));
  const __m512i v32 = _mm512_add_epi16(v, a5);
  _mm512_storeu_si512(reinterpret_cast<void*>(lut + 32), v32);
  const __m512i v64a = _mm512_add_epi16(v, a6);
  const __m512i v64b = _mm512_add_epi16(v32, a6);
  _mm512_storeu_si512(reinterpret_cast<void*>(lut + 64), v64a);
  _mm512_storeu_si512(reinterpret_cast<void*>(lut + 96), v64b);
  _mm512_storeu_si512(reinterpret_cast<void*>(lut + 128),
                      _mm512_add_epi16(v, a7));
  _mm512_storeu_si512(reinterpret_cast<void*>(lut + 160),
                      _mm512_add_epi16(v32, a7));
  _mm512_storeu_si512(reinterpret_cast<void*>(lut + 192),
                      _mm512_add_epi16(v64a, a7));
  _mm512_storeu_si512(reinterpret_cast<void*>(lut + 224),
                      _mm512_add_epi16(v64b, a7));
}

__attribute__((target("avx2"))) void build_table_i32_avx2(
    const std::int32_t* a, std::int32_t* lut) noexcept {
  // Entries 0..7 in one ymm (lane m = subset sum over a[0..2]); see the
  // i16 variant for why the head must not round-trip through memory.
  const __m256i m0 = _mm256_setr_epi32(0, -1, 0, -1, 0, -1, 0, -1);
  const __m256i m1 = _mm256_setr_epi32(0, 0, -1, -1, 0, 0, -1, -1);
  const __m256i m2 = _mm256_setr_epi32(0, 0, 0, 0, -1, -1, -1, -1);
  __m256i v = _mm256_and_si256(_mm256_set1_epi32(a[0]), m0);
  v = _mm256_add_epi32(v, _mm256_and_si256(_mm256_set1_epi32(a[1]), m1));
  v = _mm256_add_epi32(v, _mm256_and_si256(_mm256_set1_epi32(a[2]), m2));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lut), v);
  for (int j = 3; j < 8; ++j) {
    const int step = 1 << j;
    const __m256i aj = _mm256_set1_epi32(a[j]);
    for (int i = 0; i < step; i += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lut + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lut + step + i),
                          _mm256_add_epi32(v, aj));
    }
  }
}

__attribute__((target("avx512f"))) void build_table_i32_avx512(
    const std::int32_t* a, std::int32_t* lut) noexcept {
  // Entries 0..15 in one zmm: lane m gains a[j] iff bit j of m is set
  // (maskz_set1 = broadcast-where-bit-set, zero elsewhere).
  __m512i v = _mm512_maskz_set1_epi32(0xAAAAu, a[0]);
  v = _mm512_add_epi32(v, _mm512_maskz_set1_epi32(0xCCCCu, a[1]));
  v = _mm512_add_epi32(v, _mm512_maskz_set1_epi32(0xF0F0u, a[2]));
  v = _mm512_add_epi32(v, _mm512_maskz_set1_epi32(0xFF00u, a[3]));
  _mm512_storeu_si512(reinterpret_cast<void*>(lut), v);
  for (int j = 4; j < 8; ++j) {
    const int step = 1 << j;
    const __m512i aj = _mm512_set1_epi32(a[j]);
    for (int i = 0; i < step; i += 16) {
      const __m512i v =
          _mm512_loadu_si512(reinterpret_cast<const void*>(lut + i));
      _mm512_storeu_si512(reinterpret_cast<void*>(lut + step + i),
                          _mm512_add_epi32(v, aj));
    }
  }
}

// ---------------------------------------------------------------------------
// Vector lookup+accumulate. 8 (AVX2) / 16 (AVX-512) groups advance in
// lockstep for one output feature: per weight bit b, a dword gather pulls
// each group's slice byte (low byte of an unaligned dword at wbytes +
// bidx[t] + b), a second gather pulls the table entries at t*256 + slice,
// and the shifted terms accumulate — int32 per-lane for int16 tables
// (|partial| <= 32767 * (2^16 - 1) < 2^31, exact), widened to int64 per
// bit for int32 tables (terms reach 2^18 << 15 = 2^33). The MSB slice's
// term is subtracted, matching the signed decomposition; integer exactness
// makes the reassociation byte-identical to the scalar walk. Tails (< one
// vector) and indices that would overflow the 32-bit gather index space
// fall back to the scalar walk.

/// Group tables live at t*256 entries; the gather index must stay in
/// int32. n <= kMaxGatherGroups keeps (n-1)*256 + 255 exact.
constexpr std::int64_t kMaxGatherGroups = (INT_MAX / 256) - 1;

__attribute__((target("avx2"))) std::int64_t accumulate_i16_avx2(
    const std::int16_t* luts, const std::uint8_t* w, const std::int32_t* bidx,
    std::int64_t n, int pw) noexcept {
  const int msb = pw - 1;
  const __m256i byte_mask = _mm256_set1_epi32(0xFF);
  const __m256i lane_tables =
      _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  std::int64_t t = 0;
  for (; t + 8 <= n; t += 8) {
    const __m256i off =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bidx + t));
    const __m256i tbase = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(t * 256)), lane_tables);
    __m256i part = _mm256_setzero_si256();
    for (int b = 0; b < pw; ++b) {
      const __m256i waddr = _mm256_add_epi32(off, _mm256_set1_epi32(b));
      const __m256i wraw = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(w), waddr, 1);
      const __m256i slice = _mm256_and_si256(wraw, byte_mask);
      const __m256i idx = _mm256_add_epi32(tbase, slice);
      const __m256i raw = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(luts), idx, 2);
      const __m256i val = _mm256_srai_epi32(_mm256_slli_epi32(raw, 16), 16);
      const __m256i sh = _mm256_sll_epi32(val, _mm_cvtsi32_si128(b));
      part = b == msb ? _mm256_sub_epi32(part, sh) : _mm256_add_epi32(part, sh);
    }
    acc_lo = _mm256_add_epi64(
        acc_lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(part)));
    acc_hi = _mm256_add_epi64(
        acc_hi, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(part, 1)));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_add_epi64(acc_lo, acc_hi));
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; t < n; ++t) {
    sum += group_lookup(luts + t * 256, w + bidx[t], pw);
  }
  return sum;
}

__attribute__((target("avx512f,avx512bw"))) std::int64_t accumulate_i16_avx512(
    const std::int16_t* luts, const std::uint8_t* w, const std::int32_t* bidx,
    std::int64_t n, int pw) noexcept {
  const int msb = pw - 1;
  const __m512i byte_mask = _mm512_set1_epi32(0xFF);
  const __m512i lane_tables =
      _mm512_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792, 2048, 2304,
                        2560, 2816, 3072, 3328, 3584, 3840);
  __m512i acc_lo = _mm512_setzero_si512();
  __m512i acc_hi = _mm512_setzero_si512();
  std::int64_t t = 0;
  for (; t + 16 <= n; t += 16) {
    const __m512i off =
        _mm512_loadu_si512(reinterpret_cast<const void*>(bidx + t));
    const __m512i tbase = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<int>(t * 256)), lane_tables);
    __m512i part = _mm512_setzero_si512();
    for (int b = 0; b < pw; ++b) {
      const __m512i waddr = _mm512_add_epi32(off, _mm512_set1_epi32(b));
      const __m512i wraw = _mm512_mask_i32gather_epi32(
          _mm512_setzero_si512(), 0xFFFF, waddr, w, 1);
      const __m512i slice = _mm512_and_si512(wraw, byte_mask);
      const __m512i idx = _mm512_add_epi32(tbase, slice);
      const __m512i raw = _mm512_mask_i32gather_epi32(
          _mm512_setzero_si512(), 0xFFFF, idx, luts, 2);
      const __m512i val = _mm512_srai_epi32(_mm512_slli_epi32(raw, 16), 16);
      const __m512i sh = _mm512_sll_epi32(val, _mm_cvtsi32_si128(b));
      part = b == msb ? _mm512_sub_epi32(part, sh) : _mm512_add_epi32(part, sh);
    }
    acc_lo = _mm512_add_epi64(
        acc_lo, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(part)));
    acc_hi = _mm512_add_epi64(
        acc_hi, _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(part, 1)));
  }
  std::int64_t sum =
      _mm512_reduce_add_epi64(_mm512_add_epi64(acc_lo, acc_hi));
  for (; t < n; ++t) {
    sum += group_lookup(luts + t * 256, w + bidx[t], pw);
  }
  return sum;
}

__attribute__((target("avx2"))) std::int64_t accumulate_i32_avx2(
    const std::int32_t* luts, const std::uint8_t* w, const std::int32_t* bidx,
    std::int64_t n, int pw) noexcept {
  const int msb = pw - 1;
  const __m256i byte_mask = _mm256_set1_epi32(0xFF);
  const __m256i lane_tables =
      _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  std::int64_t t = 0;
  for (; t + 8 <= n; t += 8) {
    const __m256i off =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bidx + t));
    const __m256i tbase = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(t * 256)), lane_tables);
    for (int b = 0; b < pw; ++b) {
      const __m256i waddr = _mm256_add_epi32(off, _mm256_set1_epi32(b));
      const __m256i wraw = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(w), waddr, 1);
      const __m256i slice = _mm256_and_si256(wraw, byte_mask);
      const __m256i idx = _mm256_add_epi32(tbase, slice);
      const __m256i val = _mm256_i32gather_epi32(luts, idx, 4);
      const __m128i cnt = _mm_cvtsi32_si128(b);
      const __m256i lo = _mm256_sll_epi64(
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(val)), cnt);
      const __m256i hi = _mm256_sll_epi64(
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(val, 1)), cnt);
      if (b == msb) {
        acc_lo = _mm256_sub_epi64(acc_lo, lo);
        acc_hi = _mm256_sub_epi64(acc_hi, hi);
      } else {
        acc_lo = _mm256_add_epi64(acc_lo, lo);
        acc_hi = _mm256_add_epi64(acc_hi, hi);
      }
    }
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_add_epi64(acc_lo, acc_hi));
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; t < n; ++t) {
    sum += group_lookup(luts + t * 256, w + bidx[t], pw);
  }
  return sum;
}

__attribute__((target("avx512f"))) std::int64_t accumulate_i32_avx512(
    const std::int32_t* luts, const std::uint8_t* w, const std::int32_t* bidx,
    std::int64_t n, int pw) noexcept {
  const int msb = pw - 1;
  const __m512i byte_mask = _mm512_set1_epi32(0xFF);
  const __m512i lane_tables =
      _mm512_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792, 2048, 2304,
                        2560, 2816, 3072, 3328, 3584, 3840);
  __m512i acc_lo = _mm512_setzero_si512();
  __m512i acc_hi = _mm512_setzero_si512();
  std::int64_t t = 0;
  for (; t + 16 <= n; t += 16) {
    const __m512i off =
        _mm512_loadu_si512(reinterpret_cast<const void*>(bidx + t));
    const __m512i tbase = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<int>(t * 256)), lane_tables);
    for (int b = 0; b < pw; ++b) {
      const __m512i waddr = _mm512_add_epi32(off, _mm512_set1_epi32(b));
      const __m512i wraw = _mm512_mask_i32gather_epi32(
          _mm512_setzero_si512(), 0xFFFF, waddr, w, 1);
      const __m512i slice = _mm512_and_si512(wraw, byte_mask);
      const __m512i idx = _mm512_add_epi32(tbase, slice);
      const __m512i val = _mm512_mask_i32gather_epi32(
          _mm512_setzero_si512(), 0xFFFF, idx, luts, 4);
      const __m128i cnt = _mm_cvtsi32_si128(b);
      const __m512i lo = _mm512_sll_epi64(
          _mm512_cvtepi32_epi64(_mm512_castsi512_si256(val)), cnt);
      const __m512i hi = _mm512_sll_epi64(
          _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(val, 1)), cnt);
      if (b == msb) {
        acc_lo = _mm512_sub_epi64(acc_lo, lo);
        acc_hi = _mm512_sub_epi64(acc_hi, hi);
      } else {
        acc_lo = _mm512_add_epi64(acc_lo, lo);
        acc_hi = _mm512_add_epi64(acc_hi, hi);
      }
    }
  }
  std::int64_t sum =
      _mm512_reduce_add_epi64(_mm512_add_epi64(acc_lo, acc_hi));
  for (; t < n; ++t) {
    sum += group_lookup(luts + t * 256, w + bidx[t], pw);
  }
  return sum;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // LOOM_LUT_X86

/// Overload shims so the templated window walk below can call the
/// width-matching dispatch kernel.
inline std::int64_t accumulate_groups(common::SimdLevel level,
                                      const std::int16_t* luts,
                                      const std::uint8_t* w,
                                      const std::int32_t* bidx, std::int64_t n,
                                      int pw) noexcept {
  return lut_kernels::accumulate_i16(level, luts, w, bidx, n, pw);
}
inline std::int64_t accumulate_groups(common::SimdLevel level,
                                      const std::int32_t* luts,
                                      const std::uint8_t* w,
                                      const std::int32_t* bidx, std::int64_t n,
                                      int pw) noexcept {
  return lut_kernels::accumulate_i32(level, luts, w, bidx, n, pw);
}
inline void build_table_dispatch(common::SimdLevel level, const std::int32_t* a,
                                 std::int16_t* lut) noexcept {
  lut_kernels::build_table_i16(level, a, lut);
}
inline void build_table_dispatch(common::SimdLevel level, const std::int32_t* a,
                                 std::int32_t* lut) noexcept {
  lut_kernels::build_table_i32(level, a, lut);
}

/// Accumulate every output feature of one window against the live groups'
/// tables, `tile` tables at a time (0 = all at once). Tables build once per
/// tile and serve all `cog` outputs — the T-MAC amortization. `bidx` holds
/// each live group's byte offset into a packed weight row (live[t] * pw),
/// precomputed so the vector walk can gather straight from it.
template <typename T>
void accumulate_window(common::SimdLevel level, const std::int32_t* acts,
                       std::span<const std::int32_t> live,
                       const std::int32_t* bidx, std::vector<T>& luts,
                       const std::uint8_t* wrow0, std::int64_t row_stride,
                       std::int64_t cog, int pw, std::int64_t tile,
                       std::int64_t* acc) {
  const auto n_live = static_cast<std::int64_t>(live.size());
  const std::int64_t step = tile == 0 ? std::max<std::int64_t>(n_live, 1) : tile;
  luts.resize(static_cast<std::size_t>(std::min(step, std::max<std::int64_t>(
                                                          n_live, 1))) *
                  256 +
              lut_kernels::kLutPadEntries);
  for (std::int64_t t0 = 0; t0 < n_live; t0 += step) {
    const std::int64_t t1 = std::min(t0 + step, n_live);
    for (std::int64_t ti = t0; ti < t1; ++ti) {
      build_table_dispatch(
          level,
          acts + static_cast<std::int64_t>(live[static_cast<std::size_t>(ti)]) *
                     8,
          luts.data() + (ti - t0) * 256);
    }
    for (std::int64_t co = 0; co < cog; ++co) {
      acc[co] += accumulate_groups(level, luts.data(), wrow0 + co * row_stride,
                                   bidx + t0, t1 - t0, pw);
    }
  }
}

}  // namespace

namespace lut_kernels {

void build_table_i16(common::SimdLevel level, const std::int32_t* a,
                     std::int16_t* lut) noexcept {
#if defined(LOOM_LUT_X86)
  const common::SimdLevel hw = common::hardware_simd_level();
  if (hw < level) level = hw;
  if (level >= common::SimdLevel::kAvx512) return build_table_i16_avx512(a, lut);
  if (level >= common::SimdLevel::kAvx2) return build_table_i16_avx2(a, lut);
#else
  (void)level;
#endif
  build_table(a, lut);
}

void build_table_i32(common::SimdLevel level, const std::int32_t* a,
                     std::int32_t* lut) noexcept {
#if defined(LOOM_LUT_X86)
  const common::SimdLevel hw = common::hardware_simd_level();
  if (hw < level) level = hw;
  if (level >= common::SimdLevel::kAvx512) return build_table_i32_avx512(a, lut);
  if (level >= common::SimdLevel::kAvx2) return build_table_i32_avx2(a, lut);
#else
  (void)level;
#endif
  build_table(a, lut);
}

std::int64_t accumulate_i16(common::SimdLevel level, const std::int16_t* luts,
                            const std::uint8_t* wbytes,
                            const std::int32_t* bidx, std::int64_t n,
                            int pw) noexcept {
#if defined(LOOM_LUT_X86)
  const common::SimdLevel hw = common::hardware_simd_level();
  if (hw < level) level = hw;
  if (n <= kMaxGatherGroups) {
    if (level >= common::SimdLevel::kAvx512) {
      return accumulate_i16_avx512(luts, wbytes, bidx, n, pw);
    }
    if (level >= common::SimdLevel::kAvx2) {
      return accumulate_i16_avx2(luts, wbytes, bidx, n, pw);
    }
  }
#else
  (void)level;
#endif
  return accumulate_scalar(luts, wbytes, bidx, n, pw);
}

std::int64_t accumulate_i32(common::SimdLevel level, const std::int32_t* luts,
                            const std::uint8_t* wbytes,
                            const std::int32_t* bidx, std::int64_t n,
                            int pw) noexcept {
#if defined(LOOM_LUT_X86)
  const common::SimdLevel hw = common::hardware_simd_level();
  if (hw < level) level = hw;
  if (n <= kMaxGatherGroups) {
    if (level >= common::SimdLevel::kAvx512) {
      return accumulate_i32_avx512(luts, wbytes, bidx, n, pw);
    }
    if (level >= common::SimdLevel::kAvx2) {
      return accumulate_i32_avx2(luts, wbytes, bidx, n, pw);
    }
  }
#else
  (void)level;
#endif
  return accumulate_scalar(luts, wbytes, bidx, n, pw);
}

}  // namespace lut_kernels

LutEngine::LutEngine(Options opts) : opts_(opts), simd_(common::simd_level()) {
  LOOM_EXPECTS(supports(opts));
  slab_windows_ = (64 / opts_.cols) * opts_.cols;
}

void LutEngine::conv_slab(const nn::Layer& layer,
                          std::span<const nn::Tensor* const> inputs,
                          const SliceSpec& spec, std::int64_t g,
                          std::int64_t slab,
                          std::span<nn::WideTensor* const> wides,
                          std::span<const std::uint8_t> wpack,
                          Scratch& scratch, ConvStats& stats) const {
  const int lanes = opts_.lanes;
  const int cols = opts_.cols;
  const std::int64_t inner = layer.inner_length();
  const std::int64_t windows = layer.windows();
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t ic_count = ceil_div(inner, static_cast<std::int64_t>(lanes));
  const std::int64_t fb_count = ceil_div(cog, static_cast<std::int64_t>(opts_.rows));
  const std::int64_t total_windows =
      windows * static_cast<std::int64_t>(inputs.size());
  const std::int64_t w0 = slab * slab_windows_;
  const std::int64_t cu =
      std::min<std::int64_t>(slab_windows_, total_windows - w0);
  const std::int64_t n_groups = ceil_div(cu, static_cast<std::int64_t>(cols));

  const int profile = spec.act_precision;
  const int pw = spec.weight_precision;
  const auto prof_mask =
      static_cast<std::uint32_t>((std::uint32_t{1} << profile) - 1);

  // ---- Phase 1: the dispatcher's streaming accounting, replicated with
  // the bit-sliced engine's exact loop structure (chunk-major, column
  // groups in ascending order) so every stat — including the
  // floating-point streamed_pa sum — lands byte-identical.
  const std::int64_t kh = layer.kernel_h;
  const std::int64_t kw = layer.kernel_w;
  std::uint32_t group_or[64];
  for (std::int64_t ic = 0; ic < ic_count; ++ic) {
    const std::int64_t n = std::min<std::int64_t>(lanes, inner - ic * lanes);
    std::fill(group_or, group_or + n_groups, 0u);
    for (std::int64_t l = 0; l < n; ++l) {
      const std::int64_t flat = ic * lanes + l;
      const std::int64_t ci = flat / (kh * kw);
      const std::int64_t rem = flat % (kh * kw);
      const std::int64_t ky = rem / kw;
      const std::int64_t kx = rem % kw;
      const std::int64_t c_base =
          (g * layer.group_in_channels() + ci) * layer.in.h;
      for (std::int64_t c0 = 0; c0 < cu;) {
        const std::int64_t gw = w0 + c0;
        const nn::Tensor& input = *inputs[static_cast<std::size_t>(gw / windows)];
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
          group_or[c / cols] |=
              static_cast<std::uint32_t>(static_cast<std::uint16_t>(v));
        }
        c0 += seg;
      }
    }
    for (std::int64_t j = 0; j < n_groups; ++j) {
      const std::int64_t group_cols =
          std::min<std::int64_t>(cols, cu - j * cols);
      int pa = profile;
      if (spec.dynamic) {
        pa = std::min(needed_bits_unsigned(group_or[j]), profile);
        stats.detect_invocations += static_cast<std::uint64_t>(fb_count);
        stats.detect_values +=
            static_cast<std::uint64_t>(fb_count * group_cols * n);
      }
      stats.cycles += static_cast<std::uint64_t>(fb_count) *
                      static_cast<std::uint64_t>(pw) *
                      static_cast<std::uint64_t>(pa);
      stats.chunks += fb_count;
      stats.streamed_pa += static_cast<double>(pa) * static_cast<double>(fb_count);
      stats.act_bits_streamed +=
          static_cast<std::uint64_t>(pa) *
          static_cast<std::uint64_t>(fb_count * group_cols * n);
      stats.weight_bits_streamed += static_cast<std::uint64_t>(pw) *
                                    static_cast<std::uint64_t>(cog * n);
    }
  }

  // ---- Phase 2: per window, gather the group activations, build the live
  // list (dead groups contribute nothing) and the partial-sum tables, then
  // sweep every output feature with Pw lookups per live group.
  const std::int64_t g8_count = ceil_div(inner, std::int64_t{8});
  scratch.acts.resize(static_cast<std::size_t>(g8_count) * 8);
  scratch.acc.resize(static_cast<std::size_t>(cog));
  const std::int64_t row_stride = g8_count * pw;

  for (std::int64_t c = 0; c < cu; ++c) {
    const std::int64_t gw = w0 + c;
    const nn::Tensor& input = *inputs[static_cast<std::size_t>(gw / windows)];
    const std::int64_t window = gw % windows;

    scratch.live.clear();
    bool narrow = true;
    for (std::int64_t g8 = 0; g8 < g8_count; ++g8) {
      std::int32_t* a = scratch.acts.data() + g8 * 8;
      std::int32_t sum_abs = 0;
      for (int j = 0; j < 8; ++j) {
        const std::int64_t flat = g8 * 8 + j;
        std::int32_t v = 0;
        if (flat < inner) {
          const std::int64_t idx = nn::im2col_input_index(layer, g, window, flat);
          if (idx >= 0) {
            const auto raw = static_cast<std::uint32_t>(
                static_cast<std::uint16_t>(input.flat(idx)));
            v = spec.act_signed ? sext16(raw)
                                : static_cast<std::int32_t>(raw & prof_mask);
          }
        }
        a[j] = v;
        sum_abs += v < 0 ? -v : v;
      }
      if (sum_abs != 0) {
        scratch.live.push_back(static_cast<std::int32_t>(g8));
        if (sum_abs > kNarrowLimit) narrow = false;
      }
    }
    scratch.bidx.resize(scratch.live.size());
    for (std::size_t i = 0; i < scratch.live.size(); ++i) {
      scratch.bidx[i] = scratch.live[i] * pw;
    }

    std::fill(scratch.acc.begin(), scratch.acc.end(), std::int64_t{0});
    const std::uint8_t* wrow0 =
        wpack.data() + static_cast<std::size_t>(g * cog) *
                           static_cast<std::size_t>(row_stride);
    if (narrow) {
      accumulate_window(simd_, scratch.acts.data(), scratch.live,
                        scratch.bidx.data(), scratch.lut16, wrow0, row_stride,
                        cog, pw, opts_.group_tile, scratch.acc.data());
    } else {
      accumulate_window(simd_, scratch.acts.data(), scratch.live,
                        scratch.bidx.data(), scratch.lut32, wrow0, row_stride,
                        cog, pw, opts_.group_tile, scratch.acc.data());
    }

    nn::WideTensor& wide = *wides[static_cast<std::size_t>(gw / windows)];
    for (std::int64_t co = 0; co < cog; ++co) {
      wide.at3(g * cog + co, window / layer.out.w, window % layer.out.w) =
          scratch.acc[static_cast<std::size_t>(co)];
    }
  }
}

LutEngine::ConvStats LutEngine::run_conv_batch(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const nn::Tensor& weights, const SliceSpec& spec,
    std::span<nn::WideTensor* const> wides) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
  LOOM_EXPECTS(spec.act_precision >= 1 && spec.act_precision <= kBasePrecision);
  LOOM_EXPECTS(spec.weight_precision >= 1 &&
               spec.weight_precision <= kBasePrecision);
  LOOM_EXPECTS(!spec.act_signed || spec.act_precision == kBasePrecision);
  LOOM_EXPECTS(!(spec.act_signed && spec.dynamic));
  LOOM_EXPECTS(layer.inner_length() < kMaxInner);

  // Weight slices pack once per call (shared, read-only across stripes):
  // wpack[co][g8][b] holds bit b of output co's masked weights in group g8.
  const std::int64_t inner = layer.inner_length();
  const std::int64_t g8_count = ceil_div(inner, std::int64_t{8});
  const int pw = spec.weight_precision;
  const auto w_mask =
      static_cast<std::uint32_t>((std::uint32_t{1} << pw) - 1);
  std::vector<std::uint8_t> wpack(static_cast<std::size_t>(layer.out.c) *
                                      static_cast<std::size_t>(g8_count) *
                                      static_cast<std::size_t>(pw) +
                                  lut_kernels::kWeightPadBytes);
  for (std::int64_t co = 0; co < layer.out.c; ++co) {
    for (std::int64_t g8 = 0; g8 < g8_count; ++g8) {
      const std::int64_t base = co * inner + g8 * 8;
      const std::int64_t navail = std::min<std::int64_t>(8, inner - g8 * 8);
      pack_group_slices(weights, base, navail, w_mask,
                        wpack.data() + (co * g8_count + g8) * pw, pw);
    }
  }

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
      conv_slab(layer, inputs, spec, t / slab_count, t % slab_count, wides,
                wpack, scratch, stripe_stats[s]);
    }
  };

  if (stripes <= 1) {
    Scratch scratch;
    run_stripe(0, scratch);
  } else {
    // Same disjoint-output striping (and deterministic stats reduction
    // order) as the bit-sliced engine.
    std::vector<Scratch> scratches(stripes);
    shared_pool().parallel_for(
        stripes, [&](std::size_t s) { run_stripe(s, scratches[s]); });
  }

  ConvStats total;
  for (const ConvStats& s : stripe_stats) {
    total.cycles += s.cycles;
    total.streamed_pa += s.streamed_pa;
    total.chunks += s.chunks;
    total.act_bits_streamed += s.act_bits_streamed;
    total.weight_bits_streamed += s.weight_bits_streamed;
    total.detect_invocations += s.detect_invocations;
    total.detect_values += s.detect_values;
  }
  return total;
}

void LutEngine::run_fc(const nn::Layer& layer, const nn::Tensor& input,
                       const nn::Tensor& weights, int weight_precision,
                       nn::WideTensor& wide) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kFullyConnected);
  LOOM_EXPECTS(weight_precision >= 1 && weight_precision <= kBasePrecision);
  LOOM_EXPECTS(layer.in.elements() < kMaxInner);

  const std::int64_t ci = layer.in.elements();
  const std::int64_t g8_count = ceil_div(ci, std::int64_t{8});
  const int pw = weight_precision;
  const auto w_mask =
      static_cast<std::uint32_t>((std::uint32_t{1} << pw) - 1);

  // Activations gather once (signed, full 16 bits); the tables for every
  // live group build once and serve all out.c neurons.
  std::vector<std::int32_t> acts(static_cast<std::size_t>(g8_count) * 8, 0);
  std::vector<std::int32_t> live;
  bool narrow = true;
  for (std::int64_t g8 = 0; g8 < g8_count; ++g8) {
    std::int32_t sum_abs = 0;
    for (int j = 0; j < 8; ++j) {
      const std::int64_t flat = g8 * 8 + j;
      std::int32_t v = 0;
      if (flat < ci) {
        v = sext16(static_cast<std::uint32_t>(
            static_cast<std::uint16_t>(input.flat(flat))));
      }
      acts[static_cast<std::size_t>(g8) * 8 + static_cast<std::size_t>(j)] = v;
      sum_abs += v < 0 ? -v : v;
    }
    if (sum_abs != 0) {
      live.push_back(static_cast<std::int32_t>(g8));
      if (sum_abs > kNarrowLimit) narrow = false;
    }
  }
  std::vector<std::int16_t> luts16;
  std::vector<std::int32_t> luts32;
  const auto n_live = static_cast<std::int64_t>(live.size());
  if (narrow) {
    luts16.resize(static_cast<std::size_t>(n_live) * 256 +
                  lut_kernels::kLutPadEntries);
    for (std::int64_t ti = 0; ti < n_live; ++ti) {
      lut_kernels::build_table_i16(
          simd_,
          acts.data() +
              static_cast<std::int64_t>(live[static_cast<std::size_t>(ti)]) * 8,
          luts16.data() + ti * 256);
    }
  } else {
    luts32.resize(static_cast<std::size_t>(n_live) * 256 +
                  lut_kernels::kLutPadEntries);
    for (std::int64_t ti = 0; ti < n_live; ++ti) {
      lut_kernels::build_table_i32(
          simd_,
          acts.data() +
              static_cast<std::int64_t>(live[static_cast<std::size_t>(ti)]) * 8,
          luts32.data() + ti * 256);
    }
  }
  // Per-neuron packed rows hold only the live groups, so the lookup walk's
  // byte offsets are simply ti * pw — shared across all neurons.
  std::vector<std::int32_t> bidx(static_cast<std::size_t>(n_live));
  for (std::int64_t ti = 0; ti < n_live; ++ti) {
    bidx[static_cast<std::size_t>(ti)] = static_cast<std::int32_t>(ti * pw);
  }

  // Output neurons are independent: stripe over the pool. Weight slices
  // pack per neuron into stripe scratch — only the live groups, so dead
  // input stretches skip their weight walk entirely.
  const std::size_t stripes = std::min<std::size_t>(
      resolve_jobs(opts_.jobs),
      static_cast<std::size_t>(std::max<std::int64_t>(layer.out.c, 1)));
  const auto run_stripe = [&](std::size_t s, std::vector<std::uint8_t>& row) {
    const auto lo = static_cast<std::int64_t>(
        (static_cast<std::size_t>(layer.out.c) * s) / stripes);
    const auto hi = static_cast<std::int64_t>(
        (static_cast<std::size_t>(layer.out.c) * (s + 1)) / stripes);
    row.resize(static_cast<std::size_t>(std::max<std::int64_t>(n_live, 1)) *
                   static_cast<std::size_t>(pw) +
               lut_kernels::kWeightPadBytes);
    for (std::int64_t co = lo; co < hi; ++co) {
      const std::int64_t wrow = co * ci;
      for (std::int64_t ti = 0; ti < n_live; ++ti) {
        const std::int64_t g8 = live[static_cast<std::size_t>(ti)];
        pack_group_slices(weights, wrow + g8 * 8,
                          std::min<std::int64_t>(8, ci - g8 * 8), w_mask,
                          row.data() + ti * pw, pw);
      }
      const std::int64_t sum =
          narrow ? lut_kernels::accumulate_i16(simd_, luts16.data(), row.data(),
                                               bidx.data(), n_live, pw)
                 : lut_kernels::accumulate_i32(simd_, luts32.data(), row.data(),
                                               bidx.data(), n_live, pw);
      wide.set_flat(co, sum);
    }
  };

  if (stripes <= 1) {
    std::vector<std::uint8_t> row;
    run_stripe(0, row);
  } else {
    std::vector<std::vector<std::uint8_t>> rows(stripes);
    shared_pool().parallel_for(stripes,
                               [&](std::size_t s) { run_stripe(s, rows[s]); });
  }
}

void LutEngine::run_fc_batch(const nn::Layer& layer,
                             std::span<const nn::Tensor* const> inputs,
                             const nn::Tensor& weights, int weight_precision,
                             std::span<nn::WideTensor* const> wides) {
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    run_fc(layer, *inputs[r], weights, weight_precision, *wides[r]);
  }
}

}  // namespace loom::sim
