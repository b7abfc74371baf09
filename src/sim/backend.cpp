#include "sim/backend.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include "arch/dispatcher.hpp"
#include "arch/sip.hpp"
#include "common/cpuid.hpp"
#include "common/error.hpp"
#include "nn/im2col.hpp"

namespace loom::sim {

namespace {

/// Gather the window values of one (group, window) at inner positions
/// [base, base+lanes) with zero padding, matching im2col order.
std::int64_t gather_window_chunk(const nn::Layer& layer,
                                 const nn::Tensor& input, std::int64_t g,
                                 std::int64_t window, std::int64_t base,
                                 int lanes, Value* out) {
  const std::int64_t end =
      std::min<std::int64_t>(base + lanes, layer.inner_length());
  for (std::int64_t f = base; f < end; ++f) {
    const std::int64_t idx = nn::im2col_input_index(layer, g, window, f);
    out[f - base] = idx < 0 ? Value{0} : input.flat(idx);
  }
  return end - base;
}

}  // namespace

// ---------------------------------------------------------------------------
// SipGridOracle

SipGridOracle::SipGridOracle(const GridOptions& grid)
    : grid_(grid), dispatcher_(grid.lanes) {}

ConvStats SipGridOracle::run_conv_batch(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const nn::Tensor& weights, const SliceSpec& spec,
    std::span<nn::WideTensor* const> wides) {
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
  ConvStats st;
  const std::uint64_t act0 = dispatcher_.activation_bits_streamed();
  const std::uint64_t wgt0 = dispatcher_.weight_bits_streamed();
  const std::uint64_t inv0 = dispatcher_.detector().invocations();
  const std::uint64_t val0 = dispatcher_.detector().values_inspected();

  act_buf_.resize(static_cast<std::size_t>(grid_.cols) *
                  static_cast<std::size_t>(grid_.lanes));
  weight_buf_.resize(static_cast<std::size_t>(grid_.rows) *
                     static_cast<std::size_t>(grid_.lanes));
  const std::int64_t windows = layer.windows();
  const std::int64_t fb_count =
      ceil_div(layer.group_out_channels(), static_cast<std::int64_t>(grid_.rows));
  const std::int64_t wb_count =
      ceil_div(windows, static_cast<std::int64_t>(grid_.cols));
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    for (std::int64_t g = 0; g < layer.groups; ++g) {
      for (std::int64_t fb = 0; fb < fb_count; ++fb) {
        for (std::int64_t wb = 0; wb < wb_count; ++wb) {
          st.cycles += conv_block(layer, *inputs[r], weights, spec, g, fb, wb,
                                  *wides[r], st.streamed_pa, st.chunks);
        }
      }
    }
  }

  st.act_bits_streamed = dispatcher_.activation_bits_streamed() - act0;
  st.weight_bits_streamed = dispatcher_.weight_bits_streamed() - wgt0;
  st.detect_invocations = dispatcher_.detector().invocations() - inv0;
  st.detect_values = dispatcher_.detector().values_inspected() - val0;
  return st;
}

void SipGridOracle::run_fc_batch(const nn::Layer& layer,
                                 std::span<const nn::Tensor* const> inputs,
                                 const nn::Tensor& weights,
                                 int weight_precision,
                                 std::span<nn::WideTensor* const> wides) {
  LOOM_EXPECTS(!inputs.empty() && inputs.size() == wides.size());
  const std::int64_t ci = layer.in.elements();
  const arch::SipConfig sip_cfg{grid_.lanes, /*act_signed=*/true,
                                /*weight_signed=*/true};
  std::vector<Value> a(static_cast<std::size_t>(grid_.lanes));
  std::vector<Value> w(static_cast<std::size_t>(grid_.lanes));
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    const nn::Tensor& input = *inputs[r];
    for (std::int64_t co = 0; co < layer.out.c; ++co) {
      Wide acc = 0;
      for (std::int64_t base = 0; base < ci; base += grid_.lanes) {
        const std::int64_t n = std::min<std::int64_t>(grid_.lanes, ci - base);
        for (std::int64_t i = 0; i < n; ++i) {
          a[static_cast<std::size_t>(i)] = input.flat(base + i);
          w[static_cast<std::size_t>(i)] = weights.flat(co * ci + base + i);
        }
        arch::Sip chunk_sip(sip_cfg);
        acc += arch::sip_inner_product(
            chunk_sip,
            std::span<const Value>(a.data(), static_cast<std::size_t>(n)),
            std::span<const Value>(w.data(), static_cast<std::size_t>(n)),
            kBasePrecision, weight_precision);
      }
      wides[r]->set_flat(co, acc);
    }
  }
}

std::uint64_t SipGridOracle::conv_block(
    const nn::Layer& layer, const nn::Tensor& input, const nn::Tensor& weights,
    const SliceSpec& spec, std::int64_t g, std::int64_t fb, std::int64_t wb,
    nn::WideTensor& wide, double& streamed_pa, std::int64_t& chunks) {
  const std::int64_t cog = layer.group_out_channels();
  const std::int64_t inner = layer.inner_length();
  const std::int64_t windows = layer.windows();
  const std::int64_t row0 = fb * grid_.rows;
  const std::int64_t rows_used = std::min<std::int64_t>(grid_.rows, cog - row0);
  const std::int64_t col0 = wb * grid_.cols;
  const std::int64_t cols_used =
      std::min<std::int64_t>(grid_.cols, windows - col0);

  // One SIP per (row, col); ORs accumulate across input chunks.
  const arch::SipConfig sip_cfg{grid_.lanes, /*act_signed=*/false,
                                /*weight_signed=*/true};
  std::vector<arch::Sip> sips(static_cast<std::size_t>(rows_used) *
                                  static_cast<std::size_t>(cols_used),
                              arch::Sip(sip_cfg));
  for (auto& sip : sips) sip.begin_output();

  std::uint64_t block_cycles = 0;
  const std::int64_t ic_count =
      ceil_div(inner, static_cast<std::int64_t>(grid_.lanes));
  const auto lanes = static_cast<std::size_t>(grid_.lanes);
  for (std::int64_t ic = 0; ic < ic_count; ++ic) {
    act_spans_.clear();
    std::int64_t n = 0;
    for (std::int64_t c = 0; c < cols_used; ++c) {
      Value* dst = act_buf_.data() + static_cast<std::size_t>(c) * lanes;
      n = gather_window_chunk(layer, input, g, col0 + c, ic * grid_.lanes,
                              grid_.lanes, dst);
      act_spans_.emplace_back(dst, static_cast<std::size_t>(n));
    }
    dispatcher_.stream_activations(act_spans_, spec.act_precision,
                                   spec.dynamic, act_stream_);
    const arch::ActivationStream& acts = act_stream_;

    weight_spans_.clear();
    for (std::int64_t r = 0; r < rows_used; ++r) {
      Value* dst = weight_buf_.data() + static_cast<std::size_t>(r) * lanes;
      const std::int64_t co = g * cog + row0 + r;
      const std::int64_t base = co * inner + ic * grid_.lanes;
      for (std::int64_t l = 0; l < n; ++l) dst[l] = weights.flat(base + l);
      weight_spans_.emplace_back(dst, static_cast<std::size_t>(n));
    }
    dispatcher_.stream_weights(weight_spans_, spec.weight_precision,
                               weight_stream_);
    const arch::WeightStream& wbits = weight_stream_;

    streamed_pa += acts.precision;
    ++chunks;
    for (int bit = 0; bit < wbits.precision; ++bit) {
      const bool msb = bit == wbits.precision - 1;
      for (std::int64_t r = 0; r < rows_used; ++r) {
        const std::uint32_t wr = wbits.wr_word(bit, static_cast<int>(r));
        for (std::int64_t c = 0; c < cols_used; ++c) {
          sips[static_cast<std::size_t>(r * cols_used + c)].begin_weight_pass(
              wr, bit, msb);
        }
      }
      for (int step = 0; step < acts.precision; ++step) {
        for (std::int64_t c = 0; c < cols_used; ++c) {
          const std::uint32_t bits = acts.lanes(step, static_cast<int>(c));
          for (std::int64_t r = 0; r < rows_used; ++r) {
            sips[static_cast<std::size_t>(r * cols_used + c)].cycle(
                bits, /*is_act_msb=*/false);  // conv acts are unsigned
          }
        }
        ++block_cycles;
      }
      for (auto& sip : sips) sip.end_weight_pass();
    }
  }

  for (std::int64_t r = 0; r < rows_used; ++r) {
    for (std::int64_t c = 0; c < cols_used; ++c) {
      const std::int64_t co = g * cog + row0 + r;
      const std::int64_t window = col0 + c;
      wide.at3(co, window / layer.out.w, window % layer.out.w) =
          sips[static_cast<std::size_t>(r * cols_used + c)].output();
    }
  }
  return block_cycles;
}

std::string resolve_backend_name(std::string_view requested,
                                 const GridOptions& grid) {
  if (common::env_flag("LOOM_FUNCTIONAL_SCALAR",
                       std::getenv("LOOM_FUNCTIONAL_SCALAR"))) {
    return "scalar";
  }
  const std::string name = requested.empty() ? "auto" : std::string(requested);
  if (name != "scalar" && name != "gemm" && name != "auto") {
    throw ConfigError("unknown functional backend: " + name);
  }
  if (!supports(grid)) return "scalar";  // historical cols>64 fallback
  return name;
}

// ---------------------------------------------------------------------------
// TuneKey

std::string TuneKey::to_string() const {
  std::ostringstream os;
  os << (kind == 0 ? "conv" : "fc") << " in=" << in_c << "x" << in_h << "x"
     << in_w << " out_c=" << out_c;
  if (kind == 0) {
    os << " k=" << kernel_h << "x" << kernel_w << " s=" << stride
       << " p=" << pad << " g=" << groups;
  }
  os << " pa=" << pa << " pw=" << pw;
  if (act_signed) os << " signed";
  if (dynamic) os << " dyn";
  os << " batch=" << batch << " grid=" << rows << "x" << cols << "x" << lanes
     << " jobs=" << jobs;
  return os.str();
}

TuneKey conv_tune_key(const nn::Layer& layer,
                      const SliceSpec& spec, int batch,
                      const GridOptions& ctx) {
  TuneKey k;
  k.kind = 0;
  k.in_c = layer.in.c;
  k.in_h = layer.in.h;
  k.in_w = layer.in.w;
  k.out_c = layer.out.c;
  k.kernel_h = layer.kernel_h;
  k.kernel_w = layer.kernel_w;
  k.stride = layer.stride;
  k.pad = layer.pad;
  k.groups = layer.groups;
  k.pa = spec.act_precision;
  k.pw = spec.weight_precision;
  k.dynamic = spec.dynamic;
  k.batch = batch;
  k.rows = ctx.rows;
  k.cols = ctx.cols;
  k.lanes = ctx.lanes;
  k.jobs = ctx.jobs;
  return k;
}

TuneKey fc_tune_key(const nn::Layer& layer, int weight_precision, int batch,
                    const GridOptions& ctx) {
  TuneKey k;
  k.kind = 1;
  k.in_c = layer.in.elements();
  k.in_h = 1;
  k.in_w = 1;
  k.out_c = layer.out.c;
  k.pa = kBasePrecision;
  k.pw = weight_precision;
  k.act_signed = true;
  k.batch = batch;
  k.rows = ctx.rows;
  k.cols = ctx.cols;
  k.lanes = ctx.lanes;
  k.jobs = ctx.jobs;
  return k;
}

// ---------------------------------------------------------------------------
// Autotuner

struct BackendAutotuner::Impl {
  mutable std::mutex mu;
  std::map<TuneKey, Decision> cells;
  CacheStats cache_stats;
};

BackendAutotuner::BackendAutotuner() : impl_(new Impl) {}

BackendAutotuner& BackendAutotuner::instance() {
  static BackendAutotuner* tuner = new BackendAutotuner;  // leaked singleton
  return *tuner;
}

void BackendAutotuner::record(const TuneKey& key, std::string_view backend,
                              std::uint64_t ns) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Decision& cell = impl_->cells[key];
  if (cell.winner.empty()) {
    ++impl_->cache_stats.explore_records;
    cell.key = key;
    cell.winner = backend;
  }
  auto it = std::find_if(cell.samples.begin(), cell.samples.end(),
                         [&](const Sample& s) { return s.backend == backend; });
  if (it == cell.samples.end()) {
    cell.samples.push_back({std::string(backend), ns});
  } else {
    it->ns = std::min(it->ns, ns);
  }
}

std::vector<BackendAutotuner::Decision> BackendAutotuner::decisions() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<Decision> out;
  out.reserve(impl_->cells.size());
  for (const auto& [key, cell] : impl_->cells) {  // map: key-sorted
    out.push_back(cell);
  }
  return out;
}

std::size_t BackendAutotuner::install(std::span<const Decision> decisions) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::size_t installed = 0;
  for (const Decision& d : decisions) {
    const bool winner_sampled =
        std::any_of(d.samples.begin(), d.samples.end(),
                    [&](const Sample& s) { return s.backend == d.winner; });
    if (d.winner.empty() || !winner_sampled) continue;
    // In-process state wins: a cell this process already recorded is not
    // overwritten by the cache.
    if (impl_->cells.try_emplace(d.key, d).second) ++installed;
  }
  return installed;
}

BackendAutotuner::CacheStats BackendAutotuner::cache_stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->cache_stats;
}

void BackendAutotuner::reset_for_test() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->cells.clear();
  impl_->cache_stats = CacheStats{};
}

}  // namespace loom::sim
