#include "sim/gemm_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cpuid.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LOOM_GEMM_X86 1
#endif

namespace loom::sim {

namespace {

/// Packed window columns per slab tile. The int16 tiers pack
/// [pair][kTile][2] (one 512-bit load covers 16 windows of one k-pair), the
/// AMX tier [quad][kTile][4] bytes (one 64-byte tile row covers 16 windows
/// of one k-quad).
constexpr int kTile = 64;
/// Filter rows per register block; conv weight rows are zero-padded to it.
constexpr int kMr = 6;
/// AMX tiles: A is 16 filter rows x kAmxK weight bytes, B kAmxK / 4
/// k-quads x 16 windows, C 16 rows x 16 windows of int32.
constexpr int kAmxRows = 16;
constexpr std::int64_t kAmxK = 64;
/// K-steps a layer needs before it takes the byte-plane kernel. A tile
/// block pays a fixed cost the int16 kernel does not — palette load, C tile
/// stores and release, int64 widening of 16 x 64 sums — and at one or two
/// K-steps its products do not cover it: a 3x3 conv over 8 channels (inner
/// 72) ran slower on tiles than on vpmaddwd.
constexpr std::int64_t kMinByteSteps = 3;
/// Below this many int32 steps per K-block the widening would dominate, so
/// the activation splits into bytes instead (see operand_plan).
constexpr std::int64_t kMinBlockSteps = 16;
/// FC streams (request x activation part) sharing one weight load.
constexpr int kFcStreams = 4;
/// Weight rows an FC block streams at once. A batch-1 FC layer is bound by
/// DRAM bandwidth, and one row in flight (one accumulator chain) reads at
/// about 60% of what eight rows against the same activations reach.
constexpr int kFcRows = 8;
/// int32 accumulators an FC block holds in registers: rows x streams of
/// them, plus the streams' activations and a weight vector, fit the 32 zmm
/// and the 16 ymm registers.
constexpr int kFcAvx512Accumulators = 16;
constexpr int kFcAvx2Accumulators = 8;

/// Rows per FC block at `streams` streams on a tier of `accumulators`.
constexpr int fc_row_block(int accumulators, int streams) {
  return std::min(kFcRows, accumulators / streams);
}

/// Inner-length cap: |product| <= 2^30, so the int64 sums stay exact far
/// beyond it.
constexpr std::int64_t kMaxInner = std::int64_t{1} << 28;

/// Steps one int32 lane may accumulate before it must be widened. Each
/// step adds `per_step` products (2 for one vpmaddwd pair, kAmxK for one
/// TDPBSUD K-step), each of magnitude at most amax * wmax, so after n steps
/// the lane holds at most n * per_step * amax * wmax — and so does every
/// partial sum along the way, whatever order the hardware adds in — which
/// must not exceed INT32_MAX. Zero means even one step can wrap (e.g.
/// signed FC activations against 16-bit weights: (-32768 * -32768) * 2 =
/// 2^31).
constexpr std::int64_t kblock_steps(std::int64_t amax, std::int64_t wmax,
                                    std::int64_t per_step) {
  return (std::int64_t{INT32_MAX} / (amax * wmax)) / per_step;
}

/// How one layer's operands enter the GEMM: as planes whose products sum
/// exactly as sum over (i, j) of (act plane i x weight plane j) << (8i + 7j).
struct OperandPlan {
  int act_parts = 1;       ///< whole, or low byte + high part (value >> 8)
  int weight_parts = 1;    ///< whole, or 7-bit digits + a signed top plane
  std::int64_t steps = 0;  ///< K-block length in kernel steps (kblock_steps)
};

/// The int16 tiers. `amax`: the largest activation magnitude the layer can
/// stream. A value that does not fit int16 (unsigned Pa 16), or a bound too
/// tight for a useful K-block, splits the activation: the low byte is in
/// [0, 255] and the high part (value >> 8) in [-128, 255], so both parts
/// fit int16 and the block bound uses 255. Weights stay whole.
OperandPlan operand_plan(std::int64_t amax, int weight_precision) {
  const std::int64_t wmax = std::int64_t{1} << (weight_precision - 1);
  OperandPlan plan;
  plan.steps = kblock_steps(amax, wmax, 2);
  if (amax > 32768 || plan.steps < kMinBlockSteps) {
    plan.act_parts = 2;
    plan.steps = kblock_steps(255, wmax, 2);
  }
  LOOM_ENSURES(plan.steps >= kMinBlockSteps);
  return plan;
}

/// Byte planes (the AMX tier): every byte product has magnitude at most
/// 255 * 128, so a K-block holds 1,028 K-steps (65,792 products).
constexpr std::int64_t kByteBlockSteps = kblock_steps(255, 128, kAmxK);
static_assert(kByteBlockSteps == 1028);

/// Low `precision` bits of a raw 16-bit pattern, read as two's complement.
inline std::int32_t sext(Value raw, int precision) noexcept {
  const auto u = static_cast<std::uint32_t>(static_cast<std::uint16_t>(raw));
  return static_cast<std::int32_t>(u << (32 - precision)) >> (32 - precision);
}

// ---------------------------------------------------------------------------
// Kernels. conv_tile: c[r * kTile + x] += (sum over `steps` k-pairs p of
//   w[r * ws + 2p] * a[p][x][0] + w[r * ws + 2p + 1] * a[p][x][1]) << shift
// for rows r < kMr and windows x < 16 * nv, accumulating in int32 (the
// caller keeps `steps` within the K-block bound) and widening once.
// conv_tile_amx: the same over `steps` K-steps of kAmxK bytes, for rows
// r < kAmxRows, with k-quads a[q][x][0..3] in place of k-pairs.
// fc_rows: out[r * ldo + s] += sum over k < n of sext_pw(w[r * ld + k]) *
//   acts[s][k] for rows r < rows and streams s < streams (acts zero-padded
//   to a multiple of 32): each activation load serves every row and each
//   weight load every stream, and every int32 lane widens after at most
//   `block` vector steps. The vector tiers run one Block<R, S> kernel per
//   row and stream count (fc_rows_blocked).
// store_peak: dst[0..n) = src[0..n), returning max(peak, max |src[i]|).

void conv_tile_scalar(const std::int16_t* a, const std::int16_t* w,
                      std::int64_t ws, std::int64_t steps, int nv,
                      std::int64_t* c, int shift) {
  const int nw = nv * 16;
  std::int32_t acc[kMr][kTile] = {};
  for (std::int64_t p = 0; p < steps; ++p) {
    const std::int16_t* ap = a + p * 2 * kTile;
    for (int r = 0; r < kMr; ++r) {
      const std::int32_t w0 = w[r * ws + 2 * p];
      const std::int32_t w1 = w[r * ws + 2 * p + 1];
      for (int x = 0; x < nw; ++x) {
        acc[r][x] += ap[2 * x] * w0 + ap[2 * x + 1] * w1;
      }
    }
  }
  for (int r = 0; r < kMr; ++r) {
    for (int x = 0; x < nw; ++x) {
      c[r * kTile + x] += static_cast<std::int64_t>(acc[r][x]) * (1 << shift);
    }
  }
}

void fc_rows_scalar(const std::int16_t* w, std::int64_t ld, int rows,
                    std::int64_t n, int pw, const std::int16_t* const* acts,
                    int streams, std::int64_t /*block*/, std::int64_t* out,
                    std::int64_t ldo) {
  // Every product widens straight to int64: no K-block needed.
  for (std::int64_t k = 0; k < n; ++k) {
    for (int r = 0; r < rows; ++r) {
      const std::int64_t wv = sext(w[r * ld + k], pw);
      for (int s = 0; s < streams; ++s) out[r * ldo + s] += wv * acts[s][k];
    }
  }
}

Wide store_peak_scalar(const Wide* src, std::int64_t n, Wide* dst, Wide peak) {
  for (std::int64_t i = 0; i < n; ++i) {
    const Wide v = src[i];
    dst[i] = v;
    peak = std::max(peak, v < 0 ? -v : v);
  }
  return peak;
}

/// The FC block kernels of one tier, Block<R, S>::run for R rows and S
/// streams, share this signature (fc_rows without the two counts).
using FcBlock = void (*)(const std::int16_t* w, std::int64_t ld,
                         std::int64_t n, int pw,
                         const std::int16_t* const* acts, std::int64_t block,
                         std::int64_t* out, std::int64_t ldo);

/// Block<R, S> for R = 1, 2, ..., sizeof...(I).
template <template <int, int> class Block, int S, std::size_t... I>
constexpr std::array<FcBlock, sizeof...(I)> fc_blocks(
    std::index_sequence<I...>) {
  return {&Block<static_cast<int>(I) + 1, S>::run...};
}

/// Block<rows, S>, for 1 <= rows <= fc_row_block(Acc, S).
template <template <int, int> class Block, int Acc, int S>
FcBlock fc_block(int rows) {
  static constexpr auto kBlocks = fc_blocks<Block, S>(
      std::make_index_sequence<fc_row_block(Acc, S)>{});
  return kBlocks[static_cast<std::size_t>(rows - 1)];
}

/// fc_rows on a tier whose row blocks hold Acc vector accumulators: the
/// block kernel for `streams` (a switch) at `rows` (a table), so every
/// count, remainder rows included, runs with its accumulators in registers.
template <template <int, int> class Block, int Acc>
void fc_rows_blocked(const std::int16_t* w, std::int64_t ld, int rows,
                     std::int64_t n, int pw, const std::int16_t* const* acts,
                     int streams, std::int64_t block, std::int64_t* out,
                     std::int64_t ldo) {
  FcBlock run = nullptr;
  switch (streams) {
    case 1: run = fc_block<Block, Acc, 1>(rows); break;
    case 2: run = fc_block<Block, Acc, 2>(rows); break;
    case 3: run = fc_block<Block, Acc, 3>(rows); break;
    default: run = fc_block<Block, Acc, 4>(rows); break;
  }
  run(w, ld, n, pw, acts, block, out, ldo);
}

#if defined(LOOM_GEMM_X86)

// GCC 12 reports spurious "'__Y' may be used uninitialized" against the
// extract/convert intrinsics: their header definitions pass
// _mm512_undefined_epi32() as a never-read operand (GCC PR 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

inline std::int32_t load_pair(const std::int16_t* p) noexcept {
  std::int32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// dst[0..16) += the 16 int32 lanes of `acc`, widened, << sh.
__attribute__((target("avx512f"))) inline void add_widened(std::int64_t* dst,
                                                           __m512i acc,
                                                           __m128i sh) {
  const __m512i lo =
      _mm512_sll_epi64(_mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc)), sh);
  const __m512i hi = _mm512_sll_epi64(
      _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc, 1)), sh);
  _mm512_storeu_si512(dst, _mm512_add_epi64(_mm512_loadu_si512(dst), lo));
  _mm512_storeu_si512(dst + 8,
                      _mm512_add_epi64(_mm512_loadu_si512(dst + 8), hi));
}

template <int NV>
__attribute__((target("avx512f,avx512bw"))) void conv_tile_avx512_nv(
    const std::int16_t* a, const std::int16_t* w, std::int64_t ws,
    std::int64_t steps, std::int64_t* c, int shift) {
  __m512i acc[kMr][NV];
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_si512();
  }
  for (std::int64_t p = 0; p < steps; ++p) {
    const std::int16_t* ap = a + p * 2 * kTile;
    __m512i av[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) av[v] = _mm512_loadu_si512(ap + v * 32);
#pragma GCC unroll 8
    for (int r = 0; r < kMr; ++r) {
      const __m512i b = _mm512_set1_epi32(load_pair(w + r * ws + 2 * p));
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_add_epi32(acc[r][v], _mm512_madd_epi16(av[v], b));
      }
    }
  }
  const __m128i sh = _mm_cvtsi32_si128(shift);
  for (int r = 0; r < kMr; ++r) {
    for (int v = 0; v < NV; ++v) {
      add_widened(c + r * kTile + v * 16, acc[r][v], sh);
    }
  }
}

void conv_tile_avx512(const std::int16_t* a, const std::int16_t* w,
                      std::int64_t ws, std::int64_t steps, int nv,
                      std::int64_t* c, int shift) {
  switch (nv) {
    case 1: return conv_tile_avx512_nv<1>(a, w, ws, steps, c, shift);
    case 2: return conv_tile_avx512_nv<2>(a, w, ws, steps, c, shift);
    case 3: return conv_tile_avx512_nv<3>(a, w, ws, steps, c, shift);
    default: return conv_tile_avx512_nv<4>(a, w, ws, steps, c, shift);
  }
}

/// The TDPBSUD palette: every tile 16 rows x 64 bytes. Tiles 0-3 are the C
/// blocks of 16 windows each, tile 4 holds 16 weight rows (A, signed), and
/// tiles 5-7 take the activation quads (B, unsigned) in turn.
struct alignas(64) AmxConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {64, 64, 64, 64, 64, 64, 64, 64};
  std::uint8_t rows[16] = {16, 16, 16, 16, 16, 16, 16, 16};
};
constexpr AmxConfig kAmxConfig{};

template <int NV>
__attribute__((target("amx-tile,amx-int8,avx512f"))) void conv_tile_amx_nv(
    const std::uint8_t* a, const std::int8_t* w, std::int64_t ws,
    std::int64_t steps, std::int64_t* c, int shift) {
  constexpr std::int64_t kQuadBytes = 4 * kTile;  // one k-quad of the slab
  _tile_loadconfig(&kAmxConfig);
  _tile_zero(0);
  if constexpr (NV > 1) _tile_zero(1);
  if constexpr (NV > 2) _tile_zero(2);
  if constexpr (NV > 3) _tile_zero(3);
  for (std::int64_t s = 0; s < steps; ++s) {
    const std::uint8_t* b = a + s * (kAmxK / 4) * kQuadBytes;
    _tile_loadd(4, w + s * kAmxK, ws);
    _tile_loadd(5, b, kQuadBytes);
    _tile_dpbsud(0, 4, 5);
    if constexpr (NV > 1) {
      _tile_loadd(6, b + 64, kQuadBytes);
      _tile_dpbsud(1, 4, 6);
    }
    if constexpr (NV > 2) {
      _tile_loadd(7, b + 128, kQuadBytes);
      _tile_dpbsud(2, 4, 7);
    }
    if constexpr (NV > 3) {
      _tile_loadd(5, b + 192, kQuadBytes);
      _tile_dpbsud(3, 4, 5);
    }
  }
  alignas(64) std::int32_t acc[kAmxRows][kTile];
  constexpr std::int64_t kAccStride = kTile * sizeof(std::int32_t);
  _tile_stored(0, acc[0], kAccStride);
  if constexpr (NV > 1) _tile_stored(1, acc[0] + 16, kAccStride);
  if constexpr (NV > 2) _tile_stored(2, acc[0] + 32, kAccStride);
  if constexpr (NV > 3) _tile_stored(3, acc[0] + 48, kAccStride);
  // Back to the init state, so the tile data does not stay live (and get
  // saved and restored by the OS) through the pack and the demux.
  _tile_release();
  const __m128i sh = _mm_cvtsi32_si128(shift);
  for (int r = 0; r < kAmxRows; ++r) {
    for (int v = 0; v < NV; ++v) {
      add_widened(c + r * kTile + v * 16, _mm512_load_si512(acc[r] + v * 16),
                  sh);
    }
  }
}

void conv_tile_amx(const std::uint8_t* a, const std::int8_t* w,
                   std::int64_t ws, std::int64_t steps, int nv,
                   std::int64_t* c, int shift) {
  switch (nv) {
    case 1: return conv_tile_amx_nv<1>(a, w, ws, steps, c, shift);
    case 2: return conv_tile_amx_nv<2>(a, w, ws, steps, c, shift);
    case 3: return conv_tile_amx_nv<3>(a, w, ws, steps, c, shift);
    default: return conv_tile_amx_nv<4>(a, w, ws, steps, c, shift);
  }
}

/// One 16-window column block (two ymm of 8 windows) x kMr rows: 12
/// accumulators, so the whole block stays in the 16 AVX2 registers.
__attribute__((target("avx2"))) void conv_block_avx2(
    const std::int16_t* a, const std::int16_t* w, std::int64_t ws,
    std::int64_t steps, std::int64_t* c, int shift) {
  __m256i acc[kMr][2];
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  for (std::int64_t p = 0; p < steps; ++p) {
    const std::int16_t* ap = a + p * 2 * kTile;
    const __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ap));
    const __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ap + 16));
#pragma GCC unroll 8
    for (int r = 0; r < kMr; ++r) {
      const __m256i b = _mm256_set1_epi32(load_pair(w + r * ws + 2 * p));
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(a0, b));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(a1, b));
    }
  }
  const __m128i sh = _mm_cvtsi32_si128(shift);
  for (int r = 0; r < kMr; ++r) {
    for (int v = 0; v < 2; ++v) {
      for (int h = 0; h < 2; ++h) {
        std::int64_t* dst = c + r * kTile + v * 8 + h * 4;
        const __m128i part = h == 0 ? _mm256_castsi256_si128(acc[r][v])
                                    : _mm256_extracti128_si256(acc[r][v], 1);
        const __m256i wide = _mm256_sll_epi64(_mm256_cvtepi32_epi64(part), sh);
        auto* d = reinterpret_cast<__m256i*>(dst);
        _mm256_storeu_si256(d, _mm256_add_epi64(_mm256_loadu_si256(d), wide));
      }
    }
  }
}

void conv_tile_avx2(const std::int16_t* a, const std::int16_t* w,
                    std::int64_t ws, std::int64_t steps, int nv,
                    std::int64_t* c, int shift) {
  for (int b = 0; b < nv; ++b) {
    conv_block_avx2(a + b * 32, w, ws, steps, c + b * 16, shift);
  }
}

__attribute__((target("avx512f,avx512bw"))) inline std::int64_t hsum_avx512(
    __m512i acc) {
  const __m512i lo = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc));
  const __m512i hi = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc, 1));
  return _mm512_reduce_add_epi64(_mm512_add_epi64(lo, hi));
}

template <int R, int S>
struct FcBlockAvx512 {
  __attribute__((target("avx512f,avx512bw"))) static void run(
      const std::int16_t* w, std::int64_t ld, std::int64_t n, int pw,
      const std::int16_t* const* acts, std::int64_t block, std::int64_t* out,
      std::int64_t ldo) {
    const __m128i sh = _mm_cvtsi32_si128(16 - pw);
    const std::int16_t* a[S];
    for (int s = 0; s < S; ++s) a[s] = acts[s];
    const std::int64_t n32 = n & ~std::int64_t{31};
    for (std::int64_t k0 = 0; k0 < n32; k0 += block * 32) {
      const std::int64_t k1 = std::min(n32, k0 + block * 32);
      __m512i acc[R][S];
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
        for (int s = 0; s < S; ++s) acc[r][s] = _mm512_setzero_si512();
      }
      for (std::int64_t k = k0; k < k1; k += 32) {
        __m512i av[S];
#pragma GCC unroll 4
        for (int s = 0; s < S; ++s) av[s] = _mm512_loadu_si512(a[s] + k);
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
          const __m512i wv = _mm512_sra_epi16(
              _mm512_sll_epi16(_mm512_loadu_si512(w + r * ld + k), sh), sh);
#pragma GCC unroll 4
          for (int s = 0; s < S; ++s) {
            acc[r][s] =
                _mm512_add_epi32(acc[r][s], _mm512_madd_epi16(wv, av[s]));
          }
        }
      }
      for (int r = 0; r < R; ++r) {
        for (int s = 0; s < S; ++s) out[r * ldo + s] += hsum_avx512(acc[r][s]);
      }
    }
    const std::int16_t* tail[S];
    for (int s = 0; s < S; ++s) tail[s] = a[s] + n32;
    fc_rows_scalar(w + n32, ld, R, n - n32, pw, tail, S, block, out, ldo);
  }
};

__attribute__((target("avx512f"))) Wide store_peak_avx512(const Wide* src,
                                                         std::int64_t n,
                                                         Wide* dst, Wide peak) {
  __m512i m = _mm512_setzero_si512();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, v);
    m = _mm512_max_epi64(m, _mm512_abs_epi64(v));
  }
  if (i < n) {
    const auto tail = static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512i v = _mm512_maskz_loadu_epi64(tail, src + i);
    _mm512_mask_storeu_epi64(dst + i, tail, v);
    m = _mm512_max_epi64(m, _mm512_abs_epi64(v));
  }
  return std::max(peak, static_cast<Wide>(_mm512_reduce_max_epi64(m)));
}

__attribute__((target("avx2"))) inline std::int64_t hsum_avx2(__m256i acc) {
  const __m256i wide = _mm256_add_epi64(
      _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc)),
      _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc, 1)));
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), wide);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

template <int R, int S>
struct FcBlockAvx2 {
  __attribute__((target("avx2"))) static void run(
      const std::int16_t* w, std::int64_t ld, std::int64_t n, int pw,
      const std::int16_t* const* acts, std::int64_t block, std::int64_t* out,
      std::int64_t ldo) {
    const __m128i sh = _mm_cvtsi32_si128(16 - pw);
    const std::int16_t* a[S];
    for (int s = 0; s < S; ++s) a[s] = acts[s];
    const std::int64_t n16 = n & ~std::int64_t{15};
    for (std::int64_t k0 = 0; k0 < n16; k0 += block * 16) {
      const std::int64_t k1 = std::min(n16, k0 + block * 16);
      __m256i acc[R][S];
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
        for (int s = 0; s < S; ++s) acc[r][s] = _mm256_setzero_si256();
      }
      for (std::int64_t k = k0; k < k1; k += 16) {
        __m256i av[S];
#pragma GCC unroll 4
        for (int s = 0; s < S; ++s) {
          av[s] =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a[s] + k));
        }
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
          const __m256i raw = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(w + r * ld + k));
          const __m256i wv = _mm256_sra_epi16(_mm256_sll_epi16(raw, sh), sh);
#pragma GCC unroll 4
          for (int s = 0; s < S; ++s) {
            acc[r][s] =
                _mm256_add_epi32(acc[r][s], _mm256_madd_epi16(wv, av[s]));
          }
        }
      }
      for (int r = 0; r < R; ++r) {
        for (int s = 0; s < S; ++s) out[r * ldo + s] += hsum_avx2(acc[r][s]);
      }
    }
    const std::int16_t* tail[S];
    for (int s = 0; s < S; ++s) tail[s] = a[s] + n16;
    fc_rows_scalar(w + n16, ld, R, n - n16, pw, tail, S, block, out, ldo);
  }
};

__attribute__((target("avx2"))) Wide store_peak_avx2(const Wide* src,
                                                    std::int64_t n, Wide* dst,
                                                    Wide peak) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i m = zero;
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    const __m256i mag = _mm256_blendv_epi8(v, _mm256_sub_epi64(zero, v),
                                           _mm256_cmpgt_epi64(zero, v));
    m = _mm256_blendv_epi8(m, mag, _mm256_cmpgt_epi64(mag, m));
  }
  alignas(32) Wide lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), m);
  for (const Wide l : lanes) peak = std::max(peak, l);
  return store_peak_scalar(src + i, n - i, dst + i, peak);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // LOOM_GEMM_X86

}  // namespace

struct GemmEngine::Kernels {
  /// int16 conv block (conv_tile): every tier.
  void (*conv_tile)(const std::int16_t* a, const std::int16_t* w,
                    std::int64_t ws, std::int64_t steps, int nv,
                    std::int64_t* c, int shift);
  /// Byte-plane conv block (conv_tile_amx): the AMX tier, for the layers
  /// conv_layout gives byte planes; null below that tier.
  void (*conv_bytes)(const std::uint8_t* a, const std::int8_t* w,
                     std::int64_t ws, std::int64_t steps, int nv,
                     std::int64_t* c, int shift);
  /// FC row block (fc_rows): at most kFcStreams streams and
  /// fc_row_block(fc_accumulators, streams) rows.
  void (*fc_rows)(const std::int16_t* w, std::int64_t ld, int rows,
                  std::int64_t n, int pw, const std::int16_t* const* acts,
                  int streams, std::int64_t block, std::int64_t* out,
                  std::int64_t ldo);
  int fc_accumulators;  ///< int32 accumulators an FC row block holds
  /// The demux store (store_peak).
  Wide (*store_peak)(const Wide* src, std::int64_t n, Wide* dst, Wide peak);
};

namespace {

constexpr GemmEngine::Kernels kScalarKernels{
    conv_tile_scalar, nullptr, fc_rows_scalar, kFcRows, store_peak_scalar};
#if defined(LOOM_GEMM_X86)
constexpr GemmEngine::Kernels kAvx2Kernels{
    conv_tile_avx2, nullptr,
    fc_rows_blocked<FcBlockAvx2, kFcAvx2Accumulators>, kFcAvx2Accumulators,
    store_peak_avx2};
constexpr GemmEngine::Kernels kAvx512Kernels{
    conv_tile_avx512, nullptr,
    fc_rows_blocked<FcBlockAvx512, kFcAvx512Accumulators>,
    kFcAvx512Accumulators, store_peak_avx512};
constexpr GemmEngine::Kernels kAmxKernels{
    conv_tile_avx512, conv_tile_amx,
    fc_rows_blocked<FcBlockAvx512, kFcAvx512Accumulators>,
    kFcAvx512Accumulators, store_peak_avx512};
#endif

const GemmEngine::Kernels* select_kernels() {
#if defined(LOOM_GEMM_X86)
  if (common::have_amx()) return &kAmxKernels;
  if (common::have_avx512()) return &kAvx512Kernels;
  if (common::have_avx2()) return &kAvx2Kernels;
#endif
  return &kScalarKernels;
}

/// The operand layout of a conv kernel family: what the pack writes, the
/// weight planes hold and the block kernel reads.
struct Int16Pairs {
  using Act = std::int16_t;
  using Weight = std::int16_t;
  static constexpr int kGroup = 2;             ///< k interleaved per window
  static constexpr std::int64_t kStep = 2;     ///< inner positions per step
  static constexpr std::int64_t kRows = kMr;   ///< filter rows per block
  static int weight_parts(int /*pw*/) { return 1; }
  static OperandPlan plan(std::int64_t amax, int pw) {
    return operand_plan(amax, pw);
  }
  static std::vector<Weight>& planes(PreparedConv& p) { return p.pairs; }
  static const Weight* planes(const PreparedConv& p) { return p.pairs.data(); }
};

#if defined(LOOM_GEMM_X86)
struct BytePlanes {
  using Act = std::uint8_t;
  using Weight = std::int8_t;
  static constexpr int kGroup = 4;
  static constexpr std::int64_t kStep = kAmxK;
  static constexpr std::int64_t kRows = kAmxRows;
  /// Signed weight bytes: the Pw-bit value up to Pw 8, else
  /// max(1, ceil((Pw - 1) / 7)) planes (see split_row).
  static int weight_parts(int pw) {
    return static_cast<int>(std::max<std::int64_t>(1, ceil_div(pw - 1, 7)));
  }
  /// Unsigned activation bytes (the value up to Pa 8, else the low and
  /// high byte) against the weight planes.
  static OperandPlan plan(std::int64_t amax, int pw) {
    return {.act_parts = amax > 255 ? 2 : 1,
            .weight_parts = weight_parts(pw),
            .steps = kByteBlockSteps};
  }
  static std::vector<Weight>& planes(PreparedConv& p) { return p.bytes; }
  static const Weight* planes(const PreparedConv& p) { return p.bytes.data(); }
};
#endif

template <typename L>
using ConvTile = void (*)(const typename L::Act* a,
                          const typename L::Weight* w, std::int64_t ws,
                          std::int64_t steps, int nv, std::int64_t* c,
                          int shift);

/// One filter row of Pw-bit weights as `Planes` planes `plane` apart: one
/// plane holds the value w itself (W must hold it); with more, plane j <
/// Planes - 1 holds the 7-bit digit (w >> 7j) & 127 and the last the signed
/// rest w >> 7j, so w is the sum of plane j << 7j. One pass over the row.
template <int Planes, typename W>
void split_row(const Value* src, std::int64_t n, int pw, W* dst,
               std::int64_t plane) {
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int32_t w = sext(src[k], pw);
    for (int j = 0; j + 1 < Planes; ++j) {
      dst[j * plane + k] = static_cast<W>((w >> (7 * j)) & 127);
    }
    dst[(Planes - 1) * plane + k] = static_cast<W>(w >> (7 * (Planes - 1)));
  }
}

/// Filter rows per group, padded to whole register blocks of layout L.
template <typename L>
std::int64_t padded_rows(const nn::Layer& layer) {
  return ceil_div(layer.group_out_channels(), L::kRows) * L::kRows;
}

/// Inner length, padded to whole kernel steps of layout L.
template <typename L>
std::int64_t padded_inner(const nn::Layer& layer) {
  return ceil_div(layer.inner_length(), L::kStep) * L::kStep;
}

/// The conv weights as L::weight_parts(pw) (1 to 3) planes of L::Weight
/// (see split_row), each zero-padded to whole register blocks and kernel
/// steps: [plane][group][cog_pad][kpad].
template <typename L>
void weight_planes(const nn::Layer& layer, const nn::Tensor& weights, int pw,
                   PreparedConv& out) {
  const std::int64_t inner = layer.inner_length();
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t cog_pad = padded_rows<L>(layer);
  const std::int64_t kpad = padded_inner<L>(layer);
  const std::int64_t plane = layer.groups * cog_pad * kpad;
  const int parts = L::weight_parts(pw);
  std::vector<typename L::Weight>& planes = L::planes(out);
  planes.assign(static_cast<std::size_t>(parts * plane), 0);
  for (std::int64_t co = 0; co < layer.out.c; ++co) {
    const Value* src = weights.data().data() + co * inner;
    typename L::Weight* dst =
        planes.data() + ((co / cog) * cog_pad + co % cog) * kpad;
    switch (parts) {
      case 1: split_row<1>(src, inner, pw, dst, plane); break;
      case 2: split_row<2>(src, inner, pw, dst, plane); break;
      default: split_row<3>(src, inner, pw, dst, plane); break;
    }
  }
}

/// Per-stripe scratch, sized to one slab tile.
template <typename L>
struct ConvScratch {
  std::vector<typename L::Act> a;  ///< [part][k / kGroup][kTile][kGroup]
  std::vector<std::uint32_t> group_or;  ///< [chunk][column group]
  std::int64_t c[L::kRows * kTile];     ///< one register block's int64 sums
  bool both_parts = false;  ///< a slab of this stripe needed the high part
};

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// How a window's inner positions sit in a zero-bordered input: element
/// k = (ci, ky, kx) is at the window's base pointer + ci * plane + ky * row
/// + kx, so one offset serves every column of a slab.
struct PackWalk {
  std::int64_t inner = 0;
  std::int64_t kh = 0, kw = 0;
  std::int64_t row = 0;    ///< bordered row length, W + 2 * pad
  std::int64_t plane = 0;  ///< bordered channel plane, (H + 2 * pad) * row
  std::int64_t lanes = 0;  ///< inner positions per statistics chunk
  std::int64_t cols = 0;   ///< columns per statistics group
};

#if defined(LOOM_GEMM_X86)
/// The four 16-bit lanes of `x`, each at most 255, as the bytes of one
/// 32-bit word (packuswb; the byte layout exists on x86 only).
inline std::uint32_t lane_bytes(std::uint64_t x) noexcept {
  const __m128i v = _mm_cvtsi64_si128(static_cast<long long>(x));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_packus_epi16(v, v)));
}

/// The low and the high bytes of the four 16-bit lanes of `x`, each as the
/// bytes of one 32-bit word.
inline void split_lane_bytes(std::uint64_t x, std::uint32_t& lo,
                             std::uint32_t& hi) noexcept {
  const __m128i v = _mm_cvtsi64_si128(static_cast<long long>(x));
  const __m128i bytes = _mm_packus_epi16(
      _mm_and_si128(v, _mm_set1_epi16(0xFF)), _mm_srli_epi16(v, 8));
  lo = static_cast<std::uint32_t>(_mm_cvtsi128_si32(bytes));
  hi = static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(bytes, 8)));
}
#endif

/// How a k-group's positions lie in every column's input: KGroup
/// positions one element apart (one word load), KGroup positions anywhere,
/// or the n < KGroup positions left at the end of the inner length.
enum class GroupShape { kRun, kScattered, kTail };

/// One k-group of the pack: the n consecutive inner positions at offsets
/// off[0..n) of every column's base pointer, stored as one KGroup-element
/// unit per column and part (positions past n store 0, as the tile's slots
/// past the inner length must hold). A column's raw values load into the
/// 16-bit lanes of one word, which ORs into the column group's statistic
/// word (lane i holds position i's OR, for ors[i][j]) and masks to
/// x = v & mask lane by lane. Each x is stored whole with one part, else
/// as its low byte and, `part_stride` further on, its high byte x >> 8; a
/// byte layout gathers the lanes' low bytes into its unit.
template <typename A, int KGroup, int Parts, GroupShape Shape>
void pack_group(const Value* const* col, std::int64_t cu, std::int64_t cols,
                int n, const std::int64_t* off, std::uint32_t* const* ors,
                std::int32_t mask, A* dst, std::int64_t part_stride) {
  static_assert(sizeof(A) * KGroup == sizeof(std::uint32_t));
  static_assert(std::endian::native == std::endian::little);
  using Lanes = std::conditional_t<KGroup == 2, std::uint32_t, std::uint64_t>;
  constexpr auto kOnes = static_cast<Lanes>(0x0001000100010001ull);
  const Lanes lane_mask = static_cast<Lanes>(mask) * kOnes;
  const int count = Shape == GroupShape::kTail ? n : KGroup;
  // Locals, so the byte stores below cannot alias them.
  std::int64_t at[KGroup] = {};
  std::copy_n(off, KGroup, at);
  for (std::int64_t j = 0, c = 0; c < cu; ++j) {
    const std::int64_t c_end = std::min(cu, c + cols);
    Lanes group = 0;
    for (; c < c_end; ++c) {
      const Value* p = col[c];
      Lanes raw = 0;
      if constexpr (Shape == GroupShape::kRun) {
        std::memcpy(&raw, p + at[0], sizeof raw);
      } else {
        for (int i = 0; i < count; ++i) {
          raw |= Lanes{static_cast<std::uint16_t>(p[at[i]])} << (16 * i);
        }
      }
      group |= raw;
      const Lanes x = raw & lane_mask;
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;  // stored with two parts only
      if constexpr (KGroup == 2) {
        lo = Parts == 1 ? x : x & 0x00FF00FFu;
        hi = (x >> 8) & 0x00FF00FFu;
      } else if constexpr (Parts == 1) {
        lo = lane_bytes(x);
      } else {
        split_lane_bytes(x, lo, hi);
      }
      std::memcpy(dst + KGroup * c, &lo, sizeof lo);
      if constexpr (Parts == 2) {
        std::memcpy(dst + part_stride + KGroup * c, &hi, sizeof hi);
      }
    }
    for (int i = 0; i < count; ++i) {
      ors[i][j] |= static_cast<std::uint16_t>(group >> (16 * i));
    }
  }
}

/// The im2col pack of a slab of `cu` columns, in one walk over the k-groups
/// (pairs or quads) the tile `a` interleaves per column: one load of each
/// column's base pointer and one store per part for every k-group (see
/// pack_group). Padding positions read the border's zeros, which leave the
/// ORs unchanged, so the walk has no bounds test; (ci, ky, kx) advance as
/// counters, and each position's statistics row moves on every walk.lanes
/// positions.
template <typename A, int KGroup, int Parts>
void pack_slab(const PackWalk& walk, const Value* const* col, std::int64_t cu,
               std::int32_t mask, A* a, std::int64_t part_stride,
               std::uint32_t* ors) {
  const std::int64_t n_groups = ceil_div(cu, walk.cols);
  const std::int64_t next_row = walk.row - walk.kw + 1;
  const std::int64_t next_plane =
      walk.plane - (walk.kh - 1) * walk.row - walk.kw + 1;
  std::int64_t pos = 0, kx = 0, ky = 0, lane = 0;
  std::int64_t off[KGroup] = {};
  std::uint32_t* rows[KGroup] = {};
  for (std::int64_t k0 = 0; k0 < walk.inner; k0 += KGroup) {
    const auto n = static_cast<int>(std::min<std::int64_t>(KGroup, walk.inner - k0));
    for (int i = 0; i < n; ++i) {
      off[i] = pos;
      rows[i] = ors;
      if (++lane == walk.lanes) {
        lane = 0;
        ors += n_groups;
      }
      if (++kx < walk.kw) {
        ++pos;
      } else if (kx = 0; ++ky < walk.kh) {
        pos += next_row;
      } else {
        ky = 0;
        pos += next_plane;
      }
    }
    A* dst = a + k0 * kTile;
    const auto group = [&]<GroupShape Shape>() {
      pack_group<A, KGroup, Parts, Shape>(col, cu, walk.cols, n, off, rows,
                                          mask, dst, part_stride);
    };
    if (n < KGroup) {
      group.template operator()<GroupShape::kTail>();
    } else if (off[KGroup - 1] - off[0] == KGroup - 1) {
      // Each step of the walk advances at least one element, so the
      // positions are consecutive.
      group.template operator()<GroupShape::kRun>();
    } else {
      group.template operator()<GroupShape::kScattered>();
    }
  }
}

}  // namespace

void conv_stream_stats(const nn::Layer& layer, const SliceSpec& spec,
                       const GridOptions& grid, std::int64_t slab_cols,
                       std::span<const std::uint32_t> group_or,
                       ConvStats& stats) {
  const std::int64_t inner = layer.inner_length();
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t fb_count = ceil_div(cog, grid.rows);
  const std::int64_t ic_count = ceil_div(inner, grid.lanes);
  const std::int64_t n_groups = ceil_div(slab_cols, grid.cols);
  LOOM_EXPECTS(static_cast<std::int64_t>(group_or.size()) >= ic_count * n_groups);
  const int profile = spec.act_precision;
  const int pw = spec.weight_precision;
  for (std::int64_t ic = 0; ic < ic_count; ++ic) {
    const std::int64_t n = std::min<std::int64_t>(grid.lanes, inner - ic * grid.lanes);
    for (std::int64_t j = 0; j < n_groups; ++j) {
      const std::int64_t group_cols =
          std::min<std::int64_t>(grid.cols, slab_cols - j * grid.cols);
      int pa = profile;
      if (spec.dynamic) {
        pa = std::min(
            needed_bits_unsigned(group_or[static_cast<std::size_t>(ic * n_groups + j)]),
            profile);
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
}

namespace {

using StorePeak = Wide (*)(const Wide* src, std::int64_t n, Wide* dst,
                          Wide peak);

/// Each stripe's per-request peaks, [stripe][request], reduced to one peak
/// per request once every stripe is done.
class StripePeaks {
 public:
  StripePeaks(std::size_t stripes, std::size_t requests)
      : requests_(requests), peaks_(stripes * requests, 0) {}
  Wide* of(std::size_t stripe) { return peaks_.data() + stripe * requests_; }
  void reduce(std::span<Wide> out) const {
    std::fill(out.begin(), out.end(), Wide{0});
    for (std::size_t i = 0; i < peaks_.size(); ++i) {
      out[i % requests_] = std::max(out[i % requests_], peaks_[i]);
    }
  }

 private:
  std::size_t requests_;
  std::vector<Wide> peaks_;
};

/// run_conv_batch on one operand layout: the pack, statistics, stripes and
/// demux are shared; `tile` is the layout's block kernel.
template <typename L>
ConvStats conv_batch(const GridOptions& opts, std::int64_t slab_windows,
                     ConvTile<L> tile, StorePeak store_peak,
                     const nn::Layer& layer,
                     std::span<const nn::Tensor* const> inputs,
                     const PreparedConv& weights, const SliceSpec& spec,
                     std::span<nn::WideTensor* const> wides,
                     std::span<Wide> peaks) {
  using Act = typename L::Act;
  const std::int64_t inner = layer.inner_length();
  const std::int64_t ksteps = ceil_div(inner, L::kStep);
  const std::int64_t kpad = padded_inner<L>(layer);
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t cog_pad = padded_rows<L>(layer);
  const std::int64_t windows = layer.windows();
  const int pw = spec.weight_precision;
  const std::uint32_t prof_mask = (std::uint32_t{1} << spec.act_precision) - 1;
  const OperandPlan plan = L::plan(prof_mask, pw);
  // Shared read-only by every stripe.
  const typename L::Weight* wm = L::planes(weights);
  const std::int64_t weight_plane = layer.groups * cog_pad * kpad;

  // The bordered copy counts as pack time.
  const auto t_prep = std::chrono::steady_clock::now();
  // Zero-bordered copies of the inputs (the inputs themselves at pad 0), so
  // every window of a validated geometry lies inside its buffer.
  const std::int64_t pad = layer.pad;
  const PackWalk walk{.inner = inner,
                      .kh = layer.kernel_h,
                      .kw = layer.kernel_w,
                      .row = layer.in.w + 2 * pad,
                      .plane = (layer.in.h + 2 * pad) * (layer.in.w + 2 * pad),
                      .lanes = opts.lanes,
                      .cols = opts.cols};
  const std::int64_t volume = layer.in.c * walk.plane;
  std::vector<Value> bordered;
  std::vector<const Value*> base(inputs.size());
  if (pad > 0) {
    bordered.assign(static_cast<std::size_t>(volume) * inputs.size(), 0);
  }
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    const Value* in = inputs[r]->data().data();
    if (pad == 0) {
      base[r] = in;
      continue;
    }
    Value* dst = bordered.data() + static_cast<std::int64_t>(r) * volume;
    base[r] = dst;
    for (std::int64_t ch = 0; ch < layer.in.c; ++ch) {
      for (std::int64_t y = 0; y < layer.in.h; ++y) {
        std::copy_n(in + (ch * layer.in.h + y) * layer.in.w, layer.in.w,
                    dst + ch * walk.plane + (y + pad) * walk.row + pad);
      }
    }
  }
  const std::int64_t group_offset = layer.group_in_channels() * walk.plane;
  const std::int64_t ic_count = ceil_div(inner, opts.lanes);
  const std::int64_t part_stride = kpad * kTile;
  const auto act_mask = static_cast<std::int32_t>(prof_mask);

  const std::uint64_t prep_ns = ns_since(t_prep);

  const auto conv_slab = [&](std::int64_t g, std::int64_t slab,
                             ConvScratch<L>& sc, ConvStats& stats,
                             Wide* peaks) {
    const std::int64_t w0 = slab * slab_windows;
    const std::int64_t cu = std::min<std::int64_t>(
        slab_windows, windows * static_cast<std::int64_t>(inputs.size()) - w0);
    const std::int64_t n_groups = ceil_div(cu, opts.cols);
    const int nv = static_cast<int>(ceil_div(cu, 16));

    const auto t_pack = std::chrono::steady_clock::now();
    // ---- Pack: one base pointer per column (its request's buffer, so
    // slabs may span requests), then the bounds-free im2col walk. The
    // kernel reads nv * 16 columns: zero the tail the pack leaves. The k
    // slots past `inner` are never written, so they keep the stripe's zeros.
    const Value* col[kTile];
    for (std::int64_t c = 0; c < cu; ++c) {
      const std::int64_t gw = w0 + c;
      const std::int64_t window = gw % windows;
      col[c] = base[static_cast<std::size_t>(gw / windows)] + g * group_offset +
               (window / layer.out.w) * layer.stride * walk.row +
               (window % layer.out.w) * layer.stride;
    }
    if (cu < nv * 16) {
      for (std::int64_t q = 0; q < plan.act_parts * kpad / L::kGroup; ++q) {
        Act* row = sc.a.data() + q * L::kGroup * kTile;
        std::fill(row + L::kGroup * cu, row + L::kGroup * nv * 16, Act{0});
      }
    }
    sc.group_or.assign(static_cast<std::size_t>(ic_count * n_groups), 0);
    const auto pack = [&]<int Parts>() {
      pack_slab<Act, L::kGroup, Parts>(walk, col, cu, act_mask, sc.a.data(),
                                       part_stride, sc.group_or.data());
    };
    if (sc.both_parts) {
      pack.template operator()<2>();
    } else {
      pack.template operator()<1>();
    }
    conv_stream_stats(layer, spec, opts, cu, sc.group_or, stats);
    // Dynamic planes: a slab whose streamed values all fit a byte has an
    // all-zero high part, whatever the profile, so it is not multiplied.
    std::uint32_t slab_or = 0;
    for (const std::uint32_t o : sc.group_or) slab_or |= o;
    const int act_parts = (slab_or & prof_mask) < 256 ? 1 : plan.act_parts;
    // The first slab of a stripe that needs the high part packs again as
    // both parts (its ORs do not change), and so does every later slab of
    // the stripe, in one walk: a layer whose values fit a byte never writes
    // the high part, and one whose slabs need it walks its input once.
    if (act_parts == 2 && !sc.both_parts) {
      sc.both_parts = true;
      pack.template operator()<2>();
    }
    stats.plane_products +=
        static_cast<std::uint64_t>(act_parts * plan.weight_parts);
    ++stats.slabs;
    stats.pack_ns += ns_since(t_pack);

    // ---- GEMM: L::kRows filter rows x the slab's windows per register
    // block, each plane product in int32 over each K-block, widened into
    // the int64 block sums at its plane shift.
    for (std::int64_t rb = 0; rb < cog; rb += L::kRows) {
      std::fill(sc.c, sc.c + L::kRows * kTile, std::int64_t{0});
      for (int i = 0; i < act_parts; ++i) {
        const Act* a = sc.a.data() + i * part_stride;
        for (int j = 0; j < plan.weight_parts; ++j) {
          const typename L::Weight* wrow =
              wm + j * weight_plane + (g * cog_pad + rb) * kpad;
          for (std::int64_t s0 = 0; s0 < ksteps; s0 += plan.steps) {
            tile(a + s0 * L::kStep * kTile, wrow + s0 * L::kStep, kpad,
                 std::min(plan.steps, ksteps - s0), nv, sc.c, 8 * i + 7 * j);
          }
        }
      }
      // ---- Demux: each request's segment of the slab into its sums, its
      // largest magnitude into the request's peak in the same pass.
      const std::int64_t rows = std::min<std::int64_t>(L::kRows, cog - rb);
      for (std::int64_t c0 = 0; c0 < cu;) {
        const std::int64_t gw = w0 + c0;
        const std::int64_t win0 = gw % windows;
        const std::int64_t seg = std::min(cu - c0, windows - win0);
        const auto req = static_cast<std::size_t>(gw / windows);
        Wide* out = wides[req]->data().data();
        Wide peak = peaks[req];
        for (std::int64_t r = 0; r < rows; ++r) {
          peak = store_peak(sc.c + r * kTile + c0, seg,
                            out + (g * cog + rb + r) * windows + win0, peak);
        }
        peaks[req] = peak;
        c0 += seg;
      }
    }
  };

  const std::int64_t slab_count = ceil_div(
      windows * static_cast<std::int64_t>(inputs.size()), slab_windows);
  const std::int64_t tasks = layer.groups * slab_count;
  const std::size_t stripes = std::min<std::size_t>(
      resolve_jobs(opts.jobs), static_cast<std::size_t>(tasks));
  std::vector<ConvStats> stripe_stats(std::max<std::size_t>(stripes, 1));
  StripePeaks stripe_peaks(stripe_stats.size(), inputs.size());
  const auto run_stripe = [&](std::size_t s) {
    ConvScratch<L> sc;
    sc.a.assign(static_cast<std::size_t>(plan.act_parts * part_stride), 0);
    const auto lo = static_cast<std::int64_t>(
        (static_cast<std::size_t>(tasks) * s) / stripes);
    const auto hi = static_cast<std::int64_t>(
        (static_cast<std::size_t>(tasks) * (s + 1)) / stripes);
    for (std::int64_t t = lo; t < hi; ++t) {
      conv_slab(t / slab_count, t % slab_count, sc, stripe_stats[s],
                stripe_peaks.of(s));
    }
  };
  if (stripes <= 1) {
    run_stripe(0);
  } else {
    // (group, slab) tasks write disjoint outputs; the integer-valued stats
    // sum exactly, and the peaks reduce to their maximum, in any order.
    shared_pool().parallel_for(stripes, run_stripe);
  }

  ConvStats total;
  for (const ConvStats& s : stripe_stats) total += s;
  total.pack_ns += prep_ns;
  stripe_peaks.reduce(peaks);
  return total;
}

}  // namespace

ConvLayout conv_layout(const nn::Layer& layer) {
#if defined(LOOM_GEMM_X86)
  if (common::have_amx() &&
      ceil_div(layer.inner_length(), kAmxK) >= kMinByteSteps) {
    return ConvLayout::kBytePlanes;
  }
#endif
  return ConvLayout::kInt16Pairs;
}

bool PreparedConv::fits(const nn::Layer& layer, int pw) const {
  return layout == conv_layout(layer) && weight_precision == pw &&
         inner == layer.inner_length() && out_channels == layer.out.c &&
         groups == layer.groups;
}

PreparedConv prepare_conv(const nn::Layer& layer, const nn::Tensor& weights,
                          int weight_precision) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(weight_precision >= 1 && weight_precision <= kBasePrecision);
  LOOM_EXPECTS(layer.groups >= 1 && layer.out.c % layer.groups == 0);
  LOOM_EXPECTS(weights.elements() == layer.weight_count());
  PreparedConv out;
  out.layout = conv_layout(layer);
  out.weight_precision = weight_precision;
  out.inner = layer.inner_length();
  out.out_channels = layer.out.c;
  out.groups = layer.groups;
#if defined(LOOM_GEMM_X86)
  if (out.layout == ConvLayout::kBytePlanes) {
    weight_planes<BytePlanes>(layer, weights, weight_precision, out);
    return out;
  }
#endif
  weight_planes<Int16Pairs>(layer, weights, weight_precision, out);
  return out;
}

GemmEngine::GemmEngine(GridOptions grid)
    : opts_(grid), kernels_(select_kernels()) {
  LOOM_EXPECTS(supports(grid));
  slab_windows_ = (kTile / opts_.cols) * opts_.cols;
}

ConvStats GemmEngine::run_conv_batch(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const PreparedConv& weights, const SliceSpec& spec,
    std::span<nn::WideTensor* const> wides, std::span<Wide> peaks) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size() &&
               inputs.size() == peaks.size());
  LOOM_EXPECTS(spec.act_precision >= 1 && spec.act_precision <= kBasePrecision);
  LOOM_EXPECTS(spec.weight_precision >= 1 &&
               spec.weight_precision <= kBasePrecision);
  LOOM_EXPECTS(layer.inner_length() < kMaxInner);
  LOOM_EXPECTS(nn::geometry_consistent(layer));
  LOOM_EXPECTS(weights.fits(layer, spec.weight_precision));
  for (const nn::Tensor* in : inputs) {
    LOOM_EXPECTS(in->elements() == layer.in.elements());
  }
#if defined(LOOM_GEMM_X86)
  if (weights.layout == ConvLayout::kBytePlanes) {
    return conv_batch<BytePlanes>(opts_, slab_windows_, kernels_->conv_bytes,
                                  kernels_->store_peak, layer, inputs, weights,
                                  spec, wides, peaks);
  }
#endif
  return conv_batch<Int16Pairs>(opts_, slab_windows_, kernels_->conv_tile,
                                kernels_->store_peak, layer, inputs, weights,
                                spec, wides, peaks);
}

void GemmEngine::run_fc_batch(const nn::Layer& layer,
                              std::span<const nn::Tensor* const> inputs,
                              const nn::Tensor& weights, int weight_precision,
                              std::span<nn::WideTensor* const> wides,
                              std::span<Wide> peaks) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kFullyConnected);
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size() &&
               inputs.size() == peaks.size());
  LOOM_EXPECTS(weight_precision >= 1 && weight_precision <= kBasePrecision);
  LOOM_EXPECTS(layer.in.elements() < kMaxInner);

  const std::int64_t inner = layer.in.elements();
  const std::int64_t padded = ceil_div(inner, 32) * 32;
  const OperandPlan plan = operand_plan(32768, weight_precision);
  const int parts = plan.act_parts;
  const auto batch = static_cast<std::int64_t>(inputs.size());
  const std::int64_t streams = batch * parts;

  // Activation streams [request][part][padded], zero past `inner` so the
  // vector loads may run over the end.
  std::vector<std::int16_t> acts(static_cast<std::size_t>(streams * padded), 0);
  std::vector<const std::int16_t*> act_ptrs(static_cast<std::size_t>(streams));
  for (std::int64_t r = 0; r < batch; ++r) {
    std::int16_t* lo = acts.data() + r * parts * padded;
    const Value* in = inputs[static_cast<std::size_t>(r)]->data().data();
    if (parts == 2) {
      for (std::int64_t k = 0; k < inner; ++k) {
        lo[k] = static_cast<std::int16_t>(in[k] & 0xFF);
        lo[padded + k] = static_cast<std::int16_t>(in[k] >> 8);
      }
    } else {
      std::copy_n(in, inner, lo);
    }
    for (int part = 0; part < parts; ++part) {
      act_ptrs[static_cast<std::size_t>(r * parts + part)] = lo + part * padded;
    }
  }

  // Row blocks sized for a full group of streams; a smaller last group
  // holds fewer accumulators.
  const int row_block = fc_row_block(
      kernels_->fc_accumulators,
      static_cast<int>(std::min<std::int64_t>(kFcStreams, streams)));
  const std::size_t stripes = std::min<std::size_t>(
      resolve_jobs(opts_.jobs), static_cast<std::size_t>(layer.out.c));
  StripePeaks stripe_peaks(stripes, inputs.size());
  const auto run_stripe = [&](std::size_t s) {
    const auto lo = static_cast<std::int64_t>(
        (static_cast<std::size_t>(layer.out.c) * s) / stripes);
    const auto hi = static_cast<std::int64_t>(
        (static_cast<std::size_t>(layer.out.c) * (s + 1)) / stripes);
    Wide* peak = stripe_peaks.of(s);
    std::vector<std::int64_t> sums(
        static_cast<std::size_t>(row_block * streams));
    for (std::int64_t co = lo; co < hi; co += row_block) {
      const auto rows =
          static_cast<int>(std::min<std::int64_t>(row_block, hi - co));
      std::fill(sums.begin(), sums.end(), std::int64_t{0});
      const Value* w = weights.data().data() + co * inner;
      for (std::int64_t s0 = 0; s0 < streams; s0 += kFcStreams) {
        kernels_->fc_rows(w, inner, rows, inner, weight_precision,
                          act_ptrs.data() + s0,
                          static_cast<int>(std::min<std::int64_t>(
                              kFcStreams, streams - s0)),
                          plan.steps, sums.data() + s0, streams);
      }
      // The store: each request's sum, its magnitude folded into the peak.
      for (int r = 0; r < rows; ++r) {
        const std::int64_t* row = sums.data() + r * streams;
        for (std::int64_t q = 0; q < batch; ++q) {
          Wide v = row[q * parts];
          if (parts == 2) v += row[q * parts + 1] * 256;
          wides[static_cast<std::size_t>(q)]->set_flat(co + r, v);
          peak[q] = std::max(peak[q], v < 0 ? -v : v);
        }
      }
    }
  };
  if (stripes <= 1) {
    run_stripe(0);
  } else {
    shared_pool().parallel_for(stripes, run_stripe);
  }
  stripe_peaks.reduce(peaks);
}

}  // namespace loom::sim
