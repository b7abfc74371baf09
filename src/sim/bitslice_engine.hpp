// Bit-sliced functional engine: simulates up to 64 SIP columns per machine
// word. One activation bit-plane of a slab of adjacent windows is packed
// into a uint64_t (bit c = that bit of column c's activation), so one AND +
// one carry-save ripple step advances all 64 columns at once. The engine
// replicates arch::Sip semantics exactly — MSB-first activation streaming,
// sign-pass negation for two's-complement operands, weight-bit AC2 shifts,
// per-(column-group, chunk) dynamic precision from the dispatcher's OR
// detector — but runs word-parallel instead of scalar bit-by-bit.
//
// Layout per (group, slab) of a convolution:
//
//        columns (windows)  -> bit index 0..63 of one uint64_t word
//        +----------------------------------------------------+
//   b=0  | plane word lane 0 | plane word lane 1 | ... lane L |  activation
//   b=1  |        ...        |        ...        |            |  bit-planes
//   ...  |  (transposed once per chunk, reused for all rows)  |
//        +----------------------------------------------------+
//
// For a filter row r and weight bit wb, every lane whose weight bit is set
// contributes its plane word at shift (b + wb) into a 64-bit-wide bit-sliced
// accumulator (word k holds bit k of every column's partial sum); the
// weight/activation sign passes accumulate into a separate negative
// accumulator. A final 64x64 bit transpose converts each accumulator into
// per-column integers: output = pos - neg, bit-identical to driving the
// scalar arch::Sip grid.
//
// It is the "bitslice" entry of the functional backend registry
// (sim/backend.hpp). All cycle counts, streamed-precision means, and
// dispatcher/detector statistics come from the shared conv_stream_stats
// pass (sim/gemm_engine.hpp) and are byte-identical to the scalar path
// (pinned by golden digests in tests/test_bitslice_engine.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace loom::sim {

/// In-place transpose of a 64x64 bit matrix held as 64 words (bit j of
/// word i = element (i, j)). Used to convert a bit-sliced accumulator
/// (word k = bit k of every column) into per-column integers.
void transpose64(std::uint64_t a[64]) noexcept;

class BitsliceEngine {
 public:
  struct Options {
    int rows = 16;   ///< SIP rows (filter-block height; cycle accounting)
    int cols = 16;   ///< SIP columns = dynamic-detection group width
    int lanes = 16;  ///< products per SIP per cycle (max 32)
    int jobs = 1;    ///< (group, slab) fan-out over the shared pool; 0 = all
  };

  /// Streaming semantics of one layer run. Mirrors what the dispatcher +
  /// arch::Sip grid would do: activations serialized at `act_precision`
  /// planes (optionally trimmed per column-group by dynamic detection),
  /// weights at `weight_precision` two's-complement planes with a negated
  /// MSB pass. `act_signed` additionally negates the activation MSB plane
  /// (requires act_precision == 16; used by the FC and DPNN paths).
  struct SliceSpec {
    int act_precision = kBasePrecision;
    int weight_precision = kBasePrecision;
    bool act_signed = false;
    bool dynamic = false;
  };

  /// Cycle and data-movement accounting identical to what the scalar
  /// dispatcher-driven grid reports for the same layer.
  struct ConvStats {
    std::uint64_t cycles = 0;
    double streamed_pa = 0.0;  ///< sum of streamed Pa over chunks
    std::int64_t chunks = 0;
    std::uint64_t act_bits_streamed = 0;
    std::uint64_t weight_bits_streamed = 0;
    std::uint64_t detect_invocations = 0;
    std::uint64_t detect_values = 0;

    /// Integer-valued fields (streamed_pa included), so sums are exact in
    /// any order.
    ConvStats& operator+=(const ConvStats& o) noexcept {
      cycles += o.cycles;
      streamed_pa += o.streamed_pa;
      chunks += o.chunks;
      act_bits_streamed += o.act_bits_streamed;
      weight_bits_streamed += o.weight_bits_streamed;
      detect_invocations += o.detect_invocations;
      detect_values += o.detect_values;
      return *this;
    }
  };

  explicit BitsliceEngine(Options opts);

  /// True when `opts` can be bit-sliced (cols fits a 64-bit slab).
  [[nodiscard]] static bool supports(const Options& opts) noexcept {
    return opts.cols >= 1 && opts.cols <= 64 && opts.lanes >= 1 &&
           opts.lanes <= 32 && opts.rows >= 1;
  }

  /// Execute one convolution layer; exact accumulators into `wide` (shape
  /// [out.c][out.h][out.w], preallocated).
  ConvStats run_conv(const nn::Layer& layer, const nn::Tensor& input,
                     const nn::Tensor& weights, const SliceSpec& spec,
                     nn::WideTensor& wide);

  /// Batched convolution: the window axes of all requests concatenate into
  /// one global window range, so windows from different requests share the
  /// same 64-column slabs (and dynamic-detection groups may span request
  /// boundaries — the detected precision is an upper bound of every value
  /// in the group, so the exact accumulators are unchanged). Each request's
  /// outputs demux into its own `wides[r]` (preallocated, one per input).
  /// With one request this is bit- and stats-identical to `run_conv`.
  ConvStats run_conv_batch(const nn::Layer& layer,
                           std::span<const nn::Tensor* const> inputs,
                           const nn::Tensor& weights, const SliceSpec& spec,
                           std::span<nn::WideTensor* const> wides);

  /// Execute one fully-connected layer (64 output neurons per word; signed
  /// 16-bit activations, `weight_precision` two's-complement weight planes).
  void run_fc(const nn::Layer& layer, const nn::Tensor& input,
              const nn::Tensor& weights, int weight_precision,
              nn::WideTensor& wide);

  /// Batched fully-connected layer, request-packed: each 64-bit word holds
  /// one activation bit of up to 64 *requests* (instead of 64 output
  /// neurons), so the per-neuron weight NAF walk is shared by the whole
  /// batch — the lane fill a single request cannot provide. Accumulators
  /// are exact, so each `wides[r]` is byte-identical to a solo `run_fc`.
  /// A single-request batch takes the `run_fc` path unchanged.
  void run_fc_batch(const nn::Layer& layer,
                    std::span<const nn::Tensor* const> inputs,
                    const nn::Tensor& weights, int weight_precision,
                    std::span<nn::WideTensor* const> wides);

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

 private:
  struct Scratch {
    /// Dense act bit-planes: per (chunk, lane) the nonzero plane words and
    /// their bit positions, walked linearly by every filter row.
    std::vector<std::uint64_t> plane_words;
    std::vector<std::uint8_t> plane_bits;
    std::vector<std::int32_t> plane_begin;  ///< [ic*lanes + l] .. +1 range
    /// Raw activation OR per (chunk, column group): the detector's input.
    std::vector<std::uint32_t> group_or;
    /// Addend arenas: per (sign, shift) pending one-bit-per-column words,
    /// reduced by carry-save adder sweeps (see bitslice_engine.cpp).
    std::vector<std::uint64_t> arena;
    std::vector<std::int32_t> arena_n;
    std::uint64_t pos[64];
    std::uint64_t neg[64];
  };

  void conv_slab(const nn::Layer& layer,
                 std::span<const nn::Tensor* const> inputs,
                 const nn::Tensor& weights, const SliceSpec& spec,
                 std::int64_t g, std::int64_t slab,
                 std::span<nn::WideTensor* const> wides, Scratch& scratch,
                 ConvStats& stats) const;
  void fc_slab(const nn::Layer& layer, const nn::Tensor& input,
               const nn::Tensor& weights, int weight_precision,
               std::int64_t slab, nn::WideTensor& wide, Scratch& scratch) const;
  /// Request-packed FC, split so the per-neuron walk can stripe over the
  /// pool: `fc_batch_planes` transposes one request-slab's activations into
  /// `planes` (read-only afterwards), `fc_batch_neurons` accumulates output
  /// neurons [co_lo, co_hi) against them with stripe-private arenas.
  void fc_batch_planes(const nn::Layer& layer,
                       std::span<const nn::Tensor* const> inputs,
                       std::int64_t slab, Scratch& planes) const;
  void fc_batch_neurons(const nn::Layer& layer, const nn::Tensor& weights,
                        int weight_precision, std::int64_t slab,
                        std::span<nn::WideTensor* const> wides,
                        const Scratch& planes, Scratch& acc,
                        std::int64_t co_lo, std::int64_t co_hi) const;

  Options opts_;
  std::int64_t slab_windows_;  ///< windows per 64-bit slab (multiple of cols)
};

}  // namespace loom::sim
