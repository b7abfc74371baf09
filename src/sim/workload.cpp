#include "sim/workload.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <span>

#include "common/cpuid.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "nn/zoo/zoo.hpp"
#include "quant/calibration.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LOOM_WORKLOAD_X86 1
#endif

namespace loom::sim {

namespace {

/// SIP/IP lane count: the activation chunk size of the detection groups.
constexpr int kLanes = 16;
/// ReLU sparsity of the synthetic activations.
constexpr double kActZeroFraction = 0.45;
/// Weights per precision group (paper §4.6 / Table 3).
constexpr int kWeightGroup = 16;
/// Cap on weights streamed per layer for group statistics; larger tensors
/// are sampled with a deterministic stride.
constexpr std::int64_t kWeightSampleCap = 1 << 21;

/// Weights read from the stream per call when the sampled groups are
/// contiguous (64 groups).
constexpr std::int64_t kReadWeights = 64 * kWeightGroup;

/// Running sums of the per-group weight statistics behind
/// LayerWorkload::weight_stats. Per group: its effective precision (the
/// widest signed value, needed_bits_signed of the group); its essential
/// magnitude planes plus one sign pass, where an all-zero group still
/// spends one cycle (the detector/sequencer granularity); and the
/// synchronized length a 16-lane sequencer that walks every NAF digit
/// position present in *any* lane actually spends. Per weight: the NAF
/// digit count a linear estimate multiplies by.
struct WeightGroupSums {
  std::int64_t precision = 0;
  std::int64_t planes = 0;
  std::int64_t terms = 0;
  std::int64_t sync = 0;
  std::int64_t weights = 0;
  std::int64_t groups = 0;

  /// Adds a group of `size` weights from the OR of its sign-folded values,
  /// the OR of its magnitudes and the union of its NAF digit positions.
  void add_group(std::uint32_t folded, std::uint32_t ored,
                 std::uint32_t positions, std::int64_t size) {
    // needed_bits_signed(v) == bit_width(v < 0 ? ~v : v) + 1, so the group
    // precision follows from one OR of the sign-folded values.
    precision += std::bit_width(folded) + 1;
    planes += std::max(1, std::popcount(ored) + (ored != 0 ? 1 : 0));
    sync += std::max(1, std::popcount(positions));
    weights += size;
    ++groups;
  }
};

void add_weight_group(WeightGroupSums& sums, std::span<const Value> group) {
  std::uint32_t folded = 0;
  std::uint32_t ored = 0;
  std::uint32_t positions = 0;
  for (const std::int32_t v : group) {
    folded |= static_cast<std::uint32_t>(v ^ (v >> 31));
    const auto mag = static_cast<std::uint32_t>(v < 0 ? -v : v);
    ored |= mag;
    const std::uint32_t p = naf_digits(mag).positions();
    sums.terms += std::popcount(p);  // plus and minus are disjoint
    positions |= p;
  }
  sums.add_group(folded, ored, positions, static_cast<std::int64_t>(group.size()));
}

#ifdef LOOM_WORKLOAD_X86
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

/// add_weight_group over every group of `values` (whole groups of 16), one
/// zmm per group. The per-lane digit count is a nibble-table popcount
/// (vpshufb) summed by vpsadbw, which needs BW only.
__attribute__((target("avx512f,avx512bw"))) void add_weight_groups_avx512(
    WeightGroupSums& sums, std::span<const Value> values) {
  const __m512i nibble = _mm512_set1_epi8(0x0F);
  const __m512i nibble_bits =
      _mm512_set4_epi32(0x04030302, 0x03020201, 0x03020201, 0x02010100);
  __m512i digits = _mm512_setzero_si512();
  for (std::size_t i = 0; i < values.size(); i += kWeightGroup) {
    const __m512i v = _mm512_cvtepi16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values.data() + i)));
    const __m512i folded = _mm512_xor_si512(v, _mm512_srai_epi32(v, 31));
    const __m512i mag = _mm512_abs_epi32(v);
    // NAF digit positions: (3m ^ m) >> 1.
    const __m512i positions = _mm512_srli_epi32(
        _mm512_xor_si512(_mm512_add_epi32(mag, _mm512_slli_epi32(mag, 1)), mag), 1);
    const __m512i bits = _mm512_add_epi8(
        _mm512_shuffle_epi8(nibble_bits, _mm512_and_si512(positions, nibble)),
        _mm512_shuffle_epi8(
            nibble_bits, _mm512_and_si512(_mm512_srli_epi16(positions, 4), nibble)));
    digits = _mm512_add_epi64(digits, _mm512_sad_epu8(bits, _mm512_setzero_si512()));
    // A 16-bit Value folds and takes magnitudes below 2^16, so both ORs
    // share one reduction.
    const auto both = static_cast<std::uint32_t>(
        _mm512_reduce_or_epi32(_mm512_or_si512(folded, _mm512_slli_epi32(mag, 16))));
    sums.add_group(both & 0xFFFF, both >> 16,
                   static_cast<std::uint32_t>(_mm512_reduce_or_epi32(positions)),
                   kWeightGroup);
  }
  sums.terms += _mm512_reduce_add_epi64(digits);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

/// Table-3 target for the effective weight precision of a layer. Conv
/// layers use the published per-group entry; FC layers (not in Table 3)
/// apply the network's average conv trim ratio to their profile precision.
double weight_precision_target(const nn::Layer& layer,
                               const quant::PrecisionProfile& profile) {
  const auto* table3 = quant::maybe_effective_weight_precisions(profile.network);
  if (table3 == nullptr) {
    // Custom networks without a published Table 3 entry: mild trim (~15%)
    // representative of the published networks.
    return std::max(1.0, 0.85 * static_cast<double>(layer.weight_precision));
  }
  if (layer.kind == nn::LayerKind::kConv) {
    LOOM_EXPECTS(layer.precision_group >= 0 &&
                 layer.precision_group < static_cast<int>(table3->size()));
    return (*table3)[static_cast<std::size_t>(layer.precision_group)];
  }
  const double trim_ratio =
      mean(*table3) / static_cast<double>(profile.conv_weight);
  const double target = layer.weight_precision * trim_ratio;
  return std::clamp(target, 1.0, static_cast<double>(layer.weight_precision));
}

}  // namespace

LayerWorkload::LayerWorkload(const nn::Layer& layer, std::size_t layer_index,
                             const quant::PrecisionProfile& profile,
                             const WorkloadOptions& opts)
    : layer_(layer), layer_index_(layer_index), opts_(opts) {
  act_target_precision_ = std::max(
      1.0, static_cast<double>(layer.act_precision) - profile.dynamic_act_trim);
  if (layer.has_weights()) {
    table3_target_ = weight_precision_target(layer, profile);
  }
  if (layer.kind == nn::LayerKind::kConv) {
    // Activation-group geometry, derived once so steady-state queries never
    // re-run the shape arithmetic.
    windows_ = layer.windows();
    ic_count_ = ceil_div(layer.inner_length(), kLanes);
    // ensure_group_calibrated() bisects alpha on the layer's real group
    // structure; these are the fields it starts from.
    act_spec_.precision = layer.act_precision;
    act_spec_.is_signed = false;
    act_spec_.zero_fraction = kActZeroFraction;
  }
}

void LayerWorkload::ensure_input_tensor() {
  if (input_.has_value()) return;
  LOOM_EXPECTS(layer_.kind == nn::LayerKind::kConv);
  ensure_group_calibrated();
  input_ = nn::make_activation_tensor(layer_.in, act_spec_, opts_.seed,
                                      nn::activation_stream(layer_index_));
}

void LayerWorkload::ensure_planes() {
  ensure_input_tensor();
  if (!planes_.has_value()) {
    // Build fully before engaging the optional: a throwing build must not
    // leave a half-built plane for a later query to index out of bounds.
    ActOrPlanes planes(layer_, kLanes);
    planes.build(*input_);
    planes_ = std::move(planes);
  }
}

nn::SyntheticSpec LayerWorkload::input_spec() {
  LOOM_EXPECTS(layer_.kind == nn::LayerKind::kConv);
  const std::lock_guard<std::shared_mutex> lock(memo_mutex_);
  ensure_group_calibrated();
  return act_spec_;
}

void LayerWorkload::ensure_group_calibrated() {
  if (group_calibrated_) return;
  group_calibrated_ = true;
  // Bisect the concentration exponent so the mean detected precision over
  // the real (shared-value) group structure hits the target. Grouping uses
  // 16 columns — the LM1b / Stripes configuration whose 256-value groups
  // the paper's dynamic-precision unit inspects.
  constexpr int kCols = 16;
  constexpr int kMaxGroups = 320;
  constexpr int kIterations = 22;
  const std::uint64_t stream = nn::activation_stream(layer_index_);

  nn::SyntheticSpec spec = act_spec_;
  spec.alpha = 1.0;
  // One raw-RNG pass over the sampled groups warm-starts every bisection
  // measurement: the draws behind a group are alpha-independent, so each
  // iteration below counts sorted max draws against a few thresholds
  // instead of a full 256-value source scan. The measured means are
  // byte-identical to the scan's, so the bisection path — and the final
  // spec — are unchanged.
  const quant::MaxDrawSample sample = calibration_sample(
      layer_, kLanes, kCols, kMaxGroups,
      nn::SyntheticSource(opts_.seed, stream, spec));
  const auto measure = [&](const nn::SyntheticSpec& s) {
    return sample.mean_precision(nn::SyntheticSource(opts_.seed, stream, s));
  };

  const double at_min = measure(spec);
  if (act_target_precision_ >= at_min) {
    act_spec_ = spec;
    return;
  }
  double lo = 0.0;
  double hi = 16.0;  // log(alpha)
  for (int it = 0; it < kIterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    spec.alpha = std::exp(mid);
    const double measured = measure(spec);
    if (std::abs(measured - act_target_precision_) < 0.04) break;
    if (measured > act_target_precision_) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  act_spec_ = spec;
}

const LayerWorkload::ColsTables& LayerWorkload::tables_for(int cols) {
  {
    const std::shared_lock<std::shared_mutex> lock(memo_mutex_);
    const auto it = group_tables_.find(cols);
    if (it != group_tables_.end()) return it->second;
  }
  LOOM_EXPECTS(layer_.kind == nn::LayerKind::kConv);
  LOOM_EXPECTS(cols >= 1);
  const std::lock_guard<std::shared_mutex> lock(memo_mutex_);
  if (const auto it = group_tables_.find(cols); it != group_tables_.end()) {
    return it->second;
  }
  ensure_planes();
  ColsTables tables;
  tables.wb_count = ceil_div(windows_, cols);
  const auto size =
      static_cast<std::size_t>(layer_.groups * tables.wb_count * ic_count_);
  tables.precision.resize(size);
  tables.terms.resize(size);
  // Planes above the profile precision don't exist in the serialized
  // stream: precisions clip to Pa and term counts mask to it.
  const std::uint32_t pa_mask = (std::uint32_t{1} << layer_.act_precision) - 1u;
  // For a fixed (g, ic) the window blocks OR contiguous segments of one
  // plane row, so the pass streams each row exactly once.
  for (std::int64_t g = 0; g < layer_.groups; ++g) {
    for (std::int64_t ic = 0; ic < ic_count_; ++ic) {
      for (std::int64_t wb = 0; wb < tables.wb_count; ++wb) {
        const std::uint32_t ored = planes_->group_or(g, ic, wb, cols);
        const auto key = static_cast<std::size_t>(
            (g * tables.wb_count + wb) * ic_count_ + ic);
        tables.precision[key] = static_cast<std::uint8_t>(
            std::min(needed_bits_unsigned(ored), layer_.act_precision));
        tables.terms[key] = static_cast<std::uint8_t>(
            std::max(1, std::popcount(ored & pa_mask)));
      }
    }
  }
  return group_tables_.emplace(cols, std::move(tables)).first->second;
}

ActPrecisionTable LayerWorkload::act_group_precision_table(int cols) {
  const ColsTables& t = tables_for(cols);
  return {t.precision.data(), t.wb_count, ic_count_};
}

ActTermTable LayerWorkload::act_group_term_table(int cols) {
  const ColsTables& t = tables_for(cols);
  return {t.terms.data(), t.wb_count, ic_count_};
}

nn::SyntheticSource LayerWorkload::weight_source() const {
  const nn::SyntheticSpec spec = quant::calibrated_spec_cached(
      layer_.weight_precision, /*is_signed=*/true, /*zero_fraction=*/0.0,
      kWeightGroup, table3_target_);
  return {opts_.seed, nn::weight_stream(layer_index_), spec};
}

const LayerWorkload::WeightStats& LayerWorkload::weight_stats() {
  const std::lock_guard<std::mutex> lock(weight_mutex_);
  if (weight_stats_.has_value()) return *weight_stats_;
  LOOM_EXPECTS(layer_.has_weights() && layer_.weight_count() > 0);

  const std::int64_t count = layer_.weight_count();
  const std::int64_t groups = ceil_div(count, kWeightGroup);
  const std::int64_t stride =
      std::max<std::int64_t>(1, groups / (kWeightSampleCap / kWeightGroup));
  const nn::SyntheticStream stream(weight_source(), count / stride);
#ifdef LOOM_WORKLOAD_X86
  const bool simd = common::have_avx512();
#endif

  // Contiguous sampled groups are read kReadWeights at a time, strided ones
  // one group at a time.
  const std::int64_t run = stride == 1 ? kReadWeights / kWeightGroup : 1;
  std::array<Value, kReadWeights> values{};
  WeightGroupSums sums;
  for (std::int64_t g = 0; g < groups; g += run * stride) {
    const std::int64_t begin = g * kWeightGroup;
    const auto size =
        static_cast<std::size_t>(std::min(run * kWeightGroup, count - begin));
    stream.read(static_cast<std::uint64_t>(begin), std::span(values).first(size));
    const std::span<const Value> chunk(values.data(), size);
    std::size_t done = 0;
#ifdef LOOM_WORKLOAD_X86
    if (simd) {
      done = chunk.size() - chunk.size() % kWeightGroup;
      add_weight_groups_avx512(sums, chunk.first(done));
    }
#endif
    for (; done < chunk.size(); done += kWeightGroup) {
      add_weight_group(sums, chunk.subspan(done).first(
                                 std::min<std::size_t>(kWeightGroup, chunk.size() - done)));
    }
  }
  const auto mean = [](std::int64_t sum, std::int64_t count) {
    return static_cast<double>(sum) / static_cast<double>(count);
  };
  WeightStats stats;
  stats.effective_precision = mean(sums.precision, sums.groups);
  stats.essential_planes = mean(sums.planes, sums.groups);
  // Floor at one sixteenth: even an all-zero group costs the sequencer one
  // cycle, so the per-weight average cannot be meaningfully below 1/16.
  stats.naf.mean_per_weight = std::max(mean(sums.terms, sums.weights), 1.0 / 16.0);
  stats.naf.synced_per_group = mean(sums.sync, sums.groups);
  return weight_stats_.emplace(stats);
}

double LayerWorkload::effective_weight_precision() {
  return weight_stats().effective_precision;
}

double LayerWorkload::essential_weight_planes() {
  return weight_stats().essential_planes;
}

LayerWorkload::WeightTermStats LayerWorkload::naf_weight_terms() {
  return weight_stats().naf;
}

double LayerWorkload::honest_weight_precision(int rows_groups) {
  LOOM_EXPECTS(rows_groups >= 1);
  const std::lock_guard<std::mutex> lock(weight_mutex_);
  const auto it = honest_cache_.find(rows_groups);
  if (it != honest_cache_.end()) return it->second;

  const nn::SyntheticSource source = weight_source();
  const std::int64_t count = layer_.weight_count();
  const std::int64_t groups = std::max<std::int64_t>(1, count / kWeightGroup);

  // Expected max group precision when `rows_groups` groups load together:
  // deterministic Monte-Carlo over trials of randomly placed groups.
  const CounterRng rng(opts_.seed, 0x484F4E4553ull ^ layer_index_);
  constexpr int kTrials = 48;
  double acc = 0.0;
  std::uint64_t draw = 0;
  for (int t = 0; t < kTrials; ++t) {
    int maxp = 1;
    for (int r = 0; r < rows_groups; ++r) {
      const std::int64_t g =
          static_cast<std::int64_t>(rng.below(draw++, static_cast<std::uint64_t>(groups)));
      const std::int64_t begin = g * kWeightGroup;
      const std::int64_t end = std::min(begin + kWeightGroup, count);
      for (std::int64_t i = begin; i < end; ++i) {
        maxp = std::max(maxp, needed_bits_signed(
                                  source.at(static_cast<std::uint64_t>(i))));
      }
    }
    acc += maxp;
  }
  const double result =
      std::min(acc / kTrials, static_cast<double>(layer_.weight_precision));
  honest_cache_.emplace(rows_groups, result);
  return result;
}

NetworkWorkload::NetworkWorkload(nn::Network net,
                                 const quant::PrecisionProfile& profile,
                                 WorkloadOptions opts)
    : net_(std::move(net)), profile_(profile), opts_(opts) {
  layer_once_ = std::make_unique<std::once_flag[]>(net_.size());
  layers_.resize(net_.size());
}

LayerWorkload& NetworkWorkload::layer(std::size_t index) {
  LOOM_EXPECTS(index < layers_.size());
  // call_once: the ctor may run a calibration bisection, so racing threads
  // wanting the *same* layer wait for one construction (no duplicated
  // work), while different layers construct concurrently.
  std::call_once(layer_once_[index], [&] {
    layers_[index] = std::make_unique<LayerWorkload>(net_.layer(index), index,
                                                     profile_, opts_);
    layers_[index]->out_precision = net_.output_precision(index);
  });
  return *layers_[index];
}

std::unique_ptr<NetworkWorkload> prepare_network(const std::string& zoo_name,
                                                 quant::AccuracyTarget target,
                                                 WorkloadOptions opts) {
  nn::Network net = nn::zoo::make(zoo_name);
  const quant::PrecisionProfile& profile = quant::profile_for(zoo_name, target);
  quant::apply_profile(net, profile);
  return std::make_unique<NetworkWorkload>(std::move(net), profile, opts);
}

}  // namespace loom::sim
