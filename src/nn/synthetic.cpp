#include "nn/synthetic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/cpuid.hpp"
#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LOOM_SYNTHETIC_X86 1
#endif

namespace loom::nn {

namespace {

/// The zero gate k * 2^-10 < zero_fraction holds iff k < ceil(zero_fraction
/// * 2^10): the scaling is exact. Returns the smallest k that keeps a value.
std::uint64_t first_live_gate(double zero_fraction) {
  return static_cast<std::uint64_t>(std::ceil(zero_fraction * 0x1.0p10));
}

}  // namespace

#ifdef LOOM_SYNTHETIC_X86
namespace {

// GCC's reduce/convert intrinsics pass _mm512_undefined_epi32() as a
// never-read operand (GCC PR 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

/// mix64 on eight lanes (vpmullq needs DQ).
__attribute__((target("avx512f,avx512dq"))) inline __m512i mix64_x8(__m512i x) {
  x = _mm512_add_epi64(x, _mm512_set1_epi64(static_cast<long long>(0x9E3779B97F4A7C15ull)));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)),
                         _mm512_set1_epi64(static_cast<long long>(0xBF58476D1CE4E5B9ull)));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)),
                         _mm512_set1_epi64(static_cast<long long>(0x94D049BB133111EBull)));
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

/// The 16-value steps of SyntheticStream::read over a tabulated stream;
/// returns how many values it wrote (a multiple of 16).
__attribute__((target("avx512f,avx512dq"))) std::size_t read_avx512(
    const SyntheticStream& stream, const std::uint32_t* table,
    std::uint32_t dirty_bit, std::uint64_t key, std::uint32_t live_from,
    std::uint32_t sign_bit, std::uint64_t begin, std::span<Value> out) {
  const __m512i key_v = _mm512_set1_epi64(static_cast<long long>(key));
  const __m512i lanes = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i eight = _mm512_set1_epi64(8);
  // Dword j of the result: the low (even) or high (odd) half of qword j of
  // the first draw vector for j < 8, of the second for j >= 8.
  const __m512i low_halves =
      _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2, 0);
  const __m512i high_halves =
      _mm512_add_epi32(low_halves, _mm512_set1_epi32(1));
  const __m512i dirty_v = _mm512_set1_epi32(static_cast<int>(dirty_bit));
  const __m512i gate_mask = _mm512_set1_epi32(0x3FF);
  const __m512i live_v = _mm512_set1_epi32(static_cast<int>(live_from));
  const __m512i sign_v = _mm512_set1_epi32(static_cast<int>(sign_bit));
  const std::size_t n = out.size() - out.size() % 16;
  for (std::size_t i = 0; i < n; i += 16) {
    const __m512i index = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(begin + i + CounterRng::kIndexSalt)),
        lanes);
    const __m512i raw0 = mix64_x8(_mm512_xor_si512(key_v, index));
    const __m512i raw1 =
        mix64_x8(_mm512_xor_si512(key_v, _mm512_add_epi64(index, eight)));
    const __m512i low = _mm512_permutex2var_epi32(raw0, low_halves, raw1);
    const __m512i high = _mm512_permutex2var_epi32(raw0, high_halves, raw1);
    // Bucket = r >> 37 = raw >> 48.
    __m512i mag = _mm512_i32gather_epi32(_mm512_srli_epi32(high, 16), table, 4);
    __mmask16 dirty = _mm512_test_epi32_mask(mag, dirty_v);
    if (dirty != 0) {
      alignas(64) std::uint64_t raws[16];
      alignas(64) std::uint32_t mags[16];
      _mm512_store_si512(raws, raw0);
      _mm512_store_si512(raws + 8, raw1);
      _mm512_store_si512(mags, mag);
      for (; dirty != 0; dirty &= static_cast<__mmask16>(dirty - 1)) {
        const int j = std::countr_zero(static_cast<unsigned>(dirty));
        mags[j] = stream.magnitude(raws[j] >> 11);
      }
      mag = _mm512_load_si512(mags);
    }
    // The zero gate (bits 1..10) and the sign (bit 0) as lane masks.
    const __mmask16 live = _mm512_cmpge_epu32_mask(
        _mm512_and_si512(_mm512_srli_epi32(low, 1), gate_mask), live_v);
    const __mmask16 neg = _mm512_test_epi32_mask(low, sign_v);
    __m512i v = _mm512_maskz_mov_epi32(live, mag);
    v = _mm512_mask_sub_epi32(v, neg, _mm512_setzero_si512(), v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + i),
                        _mm512_cvtepi32_epi16(v));
  }
  return n;
}

/// SyntheticSource::max_draws at 16 draws per step: the zero gate and the
/// sign become lane masks and each group reduces with vpmaxuq.
__attribute__((target("avx512f,avx512dq"))) void max_draws_avx512(
    std::uint64_t key, std::uint64_t live_from, bool is_signed,
    std::uint64_t begin, int group_size,
    std::span<SyntheticSource::MaxDraws> out) {
  const __m512i key_v = _mm512_set1_epi64(static_cast<long long>(key));
  const __m512i lanes = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i eight = _mm512_set1_epi64(8);
  const __m512i gate_mask = _mm512_set1_epi64(0x3FF);
  const __m512i live_v = _mm512_set1_epi64(static_cast<long long>(live_from));
  const __m512i sign_v = _mm512_set1_epi64(is_signed ? 1 : 0);
  // The first n lanes of a step; n may be negative or past 8.
  const auto first_lanes = [](int n) {
    return static_cast<__mmask8>(n >= 8 ? 0xFF : n <= 0 ? 0 : (1u << n) - 1);
  };
  std::uint64_t index = begin + CounterRng::kIndexSalt;
  for (SyntheticSource::MaxDraws& group : out) {
    __m512i pos = _mm512_setzero_si512();
    __m512i neg = _mm512_setzero_si512();
    for (int i = 0; i < group_size; i += 16) {
      const __m512i at = _mm512_add_epi64(
          _mm512_set1_epi64(static_cast<long long>(index + static_cast<std::uint64_t>(i))),
          lanes);
      for (int half = 0; half < 2; ++half) {
        const __m512i raw = mix64_x8(_mm512_xor_si512(
            key_v, half == 0 ? at : _mm512_add_epi64(at, eight)));
        const __m512i r = _mm512_srli_epi64(raw, 11);
        const __mmask8 live =
            first_lanes(group_size - i - 8 * half) &
            _mm512_cmpge_epu64_mask(
                _mm512_and_si512(_mm512_srli_epi64(raw, 1), gate_mask), live_v);
        const __mmask8 negative = _mm512_test_epi64_mask(raw, sign_v);
        pos = _mm512_mask_max_epu64(pos, live & static_cast<__mmask8>(~negative), pos, r);
        neg = _mm512_mask_max_epu64(neg, live & negative, neg, r);
      }
    }
    group = {_mm512_reduce_max_epu64(pos), _mm512_reduce_max_epu64(neg)};
    index += static_cast<std::uint64_t>(group_size);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace
#endif

SyntheticSource::SyntheticSource(std::uint64_t seed, std::uint64_t stream,
                                 SyntheticSpec spec)
    : rng_(seed, stream), spec_(spec) {
  LOOM_EXPECTS(spec.precision >= 1 && spec.precision <= kBasePrecision);
  LOOM_EXPECTS(spec.alpha >= 1.0);
  LOOM_EXPECTS(spec.zero_fraction >= 0.0 && spec.zero_fraction < 1.0);
  // Signed precision p covers magnitudes up to 2^(p-1)-1 (we avoid the
  // asymmetric minimum so negation in the datapath cannot overflow).
  max_magnitude_ = spec.is_signed ? (1 << (spec.precision - 1)) - 1
                                  : (1 << spec.precision) - 1;
  if (spec_.is_signed && max_magnitude_ == 0) max_magnitude_ = 1;  // p==1 -> {-1,0,1}? keep {0,1}
}

Value SyntheticSource::at(std::uint64_t index) const noexcept {
  const std::uint64_t raw = rng_.bits(index);
  // Derive uniform, sign and zero-gate from independent bit fields.
  const double u = static_cast<double>(raw >> 11) * 0x1.0p-53;
  const bool negative = spec_.is_signed && ((raw & 1u) != 0);
  const double zgate = static_cast<double>((raw >> 1) & 0x3FF) * 0x1.0p-10;
  if (zgate < spec_.zero_fraction) return 0;

  const std::int32_t mag = magnitude_for_draw(u);
  return static_cast<Value>(negative ? -mag : mag);
}

SyntheticSource::Draw SyntheticSource::draw(std::uint64_t index) const noexcept {
  const std::uint64_t raw = rng_.bits(index);
  const double zgate = static_cast<double>((raw >> 1) & 0x3FF) * 0x1.0p-10;
  // Branch-free: the gate fires at random on zero_fraction of the draws, so
  // a branch here mispredicts and roughly doubles the cost of a draw.
  // `live` is all ones for a live value.
  const std::uint64_t live =
      0 - static_cast<std::uint64_t>(!(zgate < spec_.zero_fraction));
  return {(raw >> 11) & live, spec_.is_signed && (raw & live & 1) != 0};
}

void SyntheticSource::max_draws(std::uint64_t begin, int group_size,
                                std::span<MaxDraws> out) const {
  LOOM_EXPECTS(group_size > 0);
#ifdef LOOM_SYNTHETIC_X86
  if (common::have_avx512()) {
    max_draws_avx512(rng_.key(), first_live_gate(spec_.zero_fraction),
                     spec_.is_signed, begin, group_size, out);
    return;
  }
#endif
  for (MaxDraws& group : out) {
    group = {};
    for (int i = 0; i < group_size; ++i) group.add(draw(begin++));
  }
}

std::uint16_t SyntheticSource::magnitude_for_draw(double u) const noexcept {
  if (u < 0.0) return 0;
  const double scaled =
      static_cast<double>(max_magnitude_ + 1) * std::pow(u, spec_.alpha);
  auto mag = static_cast<std::int32_t>(scaled);
  if (mag > max_magnitude_) mag = max_magnitude_;
  return static_cast<std::uint16_t>(mag);
}

SyntheticSource::Band SyntheticSource::threshold_band(int m) const noexcept {
  // max+1 is a power of two, so m / (max+1) is exact.
  const double t = std::pow(static_cast<double>(m) /
                                static_cast<double>(max_magnitude_ + 1),
                            1.0 / spec_.alpha) *
                   0x1.0p53;
  return {static_cast<std::uint64_t>(std::floor(t * (1.0 - 0x1.0p-30))),
          static_cast<std::uint64_t>(std::ceil(t * (1.0 + 0x1.0p-30)))};
}

SyntheticStream::SyntheticStream(const SyntheticSource& source, std::int64_t count)
    : source_(source) {
  const int max = source.max_magnitude();
  if (count < kMinTabulatedCount + 2 * static_cast<std::int64_t>(max)) return;
  live_from_ = first_live_gate(source.spec().zero_fraction);
  sign_bit_ = source.spec().is_signed ? 1 : 0;

  const auto thresholds = static_cast<std::size_t>(max);
  bands_.resize(thresholds + 2);
  for (std::size_t m = 1; m <= thresholds; ++m) {
    bands_[m] = source.threshold_band(static_cast<int>(m));
  }
  // Sorted band edges keep the count exact where pow's rounding inverts two
  // neighbours (alpha far above 2^36 makes them equal to within an ulp):
  // widening a band only sends more draws to the fallback.
  for (std::size_t m = 2; m <= thresholds; ++m) {
    bands_[m].hi = std::max(bands_[m].hi, bands_[m - 1].hi);
  }
  for (std::size_t m = thresholds; m > 1; --m) {
    bands_[m - 1].lo = std::min(bands_[m - 1].lo, bands_[m].lo);
  }
  bands_[thresholds + 1] = {~std::uint64_t{0}, ~std::uint64_t{0}};

  // Bucket b starts at r = b * 2^37 and holds m for every start in
  // [hi_m, hi_(m+1)): the buckets below ceil(hi_(m+1) / 2^37), as hi >= 1.
  table_.resize(std::size_t{1} << (53 - kBucketShift));
  const std::uint64_t last = table_.size() - 1;
  std::size_t b = 0;
  for (std::size_t m = 0; m <= thresholds; ++m) {
    const std::uint64_t end = std::min<std::uint64_t>(
        ((bands_[m + 1].hi - 1) >> kBucketShift) + 1, table_.size());
    for (; b < end; ++b) table_[b] = static_cast<std::uint32_t>(m);
  }
  // Band m covers draws lo_m .. hi_m - 1.
  for (std::size_t m = 1; m <= thresholds; ++m) {
    const std::uint64_t first = std::min(bands_[m].lo >> kBucketShift, last);
    const std::uint64_t end = std::min((bands_[m].hi - 1) >> kBucketShift, last);
    for (std::uint64_t d = first; d <= end; ++d) table_[d] |= kDirty;
  }
}

void SyntheticStream::read(std::uint64_t begin, std::span<Value> out) const {
  std::size_t i = 0;
#ifdef LOOM_SYNTHETIC_X86
  if (tabulated() && common::have_avx512()) {
    i = read_avx512(*this, table_.data(), kDirty, source_.rng_.key(),
                    static_cast<std::uint32_t>(live_from_),
                    static_cast<std::uint32_t>(sign_bit_), begin, out);
  }
#endif
  for (; i < out.size(); ++i) out[i] = at(begin + i);
}

Tensor make_activation_tensor(const Shape3& shape, const SyntheticSpec& spec,
                              std::uint64_t seed, std::uint64_t stream) {
  Tensor t(Shape{shape.c, shape.h, shape.w});
  SyntheticStream(SyntheticSource(seed, stream, spec), t.elements()).read(0, t.data());
  return t;
}

Tensor make_weight_tensor(std::int64_t count, const SyntheticSpec& spec,
                          std::uint64_t seed, std::uint64_t stream) {
  LOOM_EXPECTS(count > 0);
  Tensor t(Shape{count});
  SyntheticStream(SyntheticSource(seed, stream, spec), count).read(0, t.data());
  return t;
}

std::uint64_t activation_stream(std::uint64_t layer_index) noexcept {
  return 0x4143540000000000ull ^ layer_index;  // "ACT"
}

std::uint64_t weight_stream(std::uint64_t layer_index) noexcept {
  return 0x5747540000000000ull ^ layer_index;  // "WGT"
}

}  // namespace loom::nn
