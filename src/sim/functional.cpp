#include "sim/functional.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "sim/loom_sim.hpp"

namespace loom::sim {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Reject a layer whose geometry, or tensors, the kernels would index out of
/// bounds with.
void check_layer_io(const nn::Layer& layer, std::span<const nn::Tensor> inputs,
                    const nn::Tensor& weights) {
  if (!nn::geometry_consistent(layer)) {
    throw ConfigError("layer '" + layer.name + "' has impossible geometry");
  }
  if (weights.elements() != layer.weight_count()) {
    throw ConfigError("layer '" + layer.name + "': " +
                      std::to_string(weights.elements()) + " weights, needs " +
                      std::to_string(layer.weight_count()));
  }
  for (const nn::Tensor& t : inputs) {
    if (!accepts_input(layer, t)) {
      throw ConfigError("layer '" + layer.name + "': input " +
                        t.shape().to_string() + ", needs " +
                        nn::Shape{layer.in.c, layer.in.h, layer.in.w}.to_string());
    }
  }
}

/// Per-request requantization demux: each request picks its shift from its
/// own accumulators, exactly as a solo run would.
void requantize_batch(FunctionalBatchLayerRun& run, int out_bits, bool relu) {
  run.outputs.reserve(run.wides.size());
  run.requant_shifts.reserve(run.wides.size());
  for (const nn::WideTensor& wide : run.wides) {
    Requantized q = requantize_accumulators(wide, out_bits, relu);
    run.requant_shifts.push_back(q.shift);
    run.outputs.push_back(std::move(q.output));
  }
}

/// A batch of one, as the solo API reports it.
FunctionalLayerRun solo_run(FunctionalBatchLayerRun&& b) {
  return FunctionalLayerRun{.name = std::move(b.name),
                            .output = std::move(b.outputs[0]),
                            .wide = std::move(b.wides[0]),
                            .cycles = b.cycles,
                            .requant_shift = b.requant_shifts[0],
                            .out_bits = b.out_bits,
                            .mean_streamed_precision = b.mean_streamed_precision,
                            .mean_plane_products = b.mean_plane_products,
                            .backend = std::move(b.backend),
                            .phases = b.phases};
}

/// A network batch of one, as run_network reports it.
FunctionalNetworkRun solo_network(FunctionalBatchNetworkRun&& batch) {
  FunctionalNetworkRun run{.layers = {},
                           .output = std::move(batch.outputs[0]),
                           .total_cycles = batch.total_cycles};
  run.layers.reserve(batch.layers.size());
  for (FunctionalBatchLayerRun& lr : batch.layers) {
    run.layers.push_back(solo_run(std::move(lr)));
  }
  return run;
}

}  // namespace

Requantized requantize_accumulators(const nn::WideTensor& acc, int out_bits,
                                    bool relu) {
  LOOM_EXPECTS(out_bits >= 1 && out_bits <= kBasePrecision);
  const std::span<const Wide> in = acc.data();
  Wide lo = 0;
  Wide hi = 0;
  for (const Wide v : in) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // max |acc|; accumulators stay far inside int64, so -lo cannot overflow.
  const Wide peak = std::max(hi, -lo);
  const Wide limit = (Wide{1} << (out_bits - 1)) - 1;
  Requantized q{nn::Tensor(acc.shape()), 0};
  while ((peak >> q.shift) > limit) ++q.shift;
  // Every |v| <= peak, so the floor division v >> shift lies in
  // [-limit - 1, limit]: saturation never clips, and ReLU is all that is
  // left of nn::requantize.
  const int shift = q.shift;
  Value* out = q.output.data().data();
  if (relu) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      const Wide v = in[i] >> shift;
      out[i] = static_cast<Value>(v & ~(v >> 63));
    }
  } else {
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = static_cast<Value>(in[i] >> shift);
    }
  }
  return q;
}

nn::Tensor pool_activations(const nn::Tensor& input, const nn::Layer& layer) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kPool);
  LOOM_EXPECTS(input.shape() ==
               (nn::Shape{layer.in.c, layer.in.h, layer.in.w}));
  const std::int64_t in_h = layer.in.h;
  const std::int64_t in_w = layer.in.w;
  // Window [first, last) of output `o`, clipped to [0, extent): empty when
  // last <= first (a ceil-mode window that starts past the input).
  const auto clip = [&](std::int64_t o, int kernel, std::int64_t extent) {
    const std::int64_t start = o * layer.stride - layer.pad;
    return std::pair{std::max<std::int64_t>(start, 0),
                     std::min<std::int64_t>(start + kernel, extent)};
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> xs;
  xs.reserve(static_cast<std::size_t>(layer.out.w));
  for (std::int64_t ox = 0; ox < layer.out.w; ++ox) {
    xs.push_back(clip(ox, layer.kernel_w, in_w));
  }
  // Per output row, reduce the window's input rows column by column into
  // `cols` (a max or an exact sum), then each output reduces its clipped
  // column range.
  const bool max = layer.pool == nn::PoolKind::kMax;
  const Wide empty = max ? std::numeric_limits<Value>::min() : 0;
  std::vector<Wide> cols(static_cast<std::size_t>(in_w));
  nn::Tensor out(nn::Shape{layer.out.c, layer.out.h, layer.out.w});
  Value* dst = out.data().data();
  for (std::int64_t c = 0; c < layer.out.c; ++c) {
    const Value* plane = input.data().data() + c * in_h * in_w;
    for (std::int64_t oy = 0; oy < layer.out.h; ++oy) {
      const auto [y0, y1] = clip(oy, layer.kernel_h, in_h);
      std::fill(cols.begin(), cols.end(), empty);
      for (std::int64_t y = y0; y < y1; ++y) {
        const Value* row = plane + y * in_w;
        if (max) {
          for (std::int64_t x = 0; x < in_w; ++x) {
            cols[x] = std::max<Wide>(cols[x], row[x]);
          }
        } else {
          for (std::int64_t x = 0; x < in_w; ++x) cols[x] += row[x];
        }
      }
      for (const auto& [x0, x1] : xs) {
        if (max) {
          Wide m = empty;
          for (std::int64_t x = x0; x < x1; ++x) m = std::max(m, cols[x]);
          *dst++ = static_cast<Value>(m);
        } else {
          Wide sum = 0;
          for (std::int64_t x = x0; x < x1; ++x) sum += cols[x];
          const std::int64_t n = std::max<std::int64_t>(y1 - y0, 0) *
                                 std::max<std::int64_t>(x1 - x0, 0);
          *dst++ = static_cast<Value>(n > 0 ? sum / n : 0);
        }
      }
    }
  }
  return out;
}

bool accepts_input(const nn::Layer& layer, const nn::Tensor& input) {
  const nn::Shape in{layer.in.c, layer.in.h, layer.in.w};
  return layer.kind == nn::LayerKind::kConv ? input.shape() == in
                                            : input.elements() == in.elements();
}

FunctionalLoomEngine::FunctionalLoomEngine(FunctionalOptions opts)
    : opts_(std::move(opts)), dispatcher_(opts_.lanes) {
  LOOM_EXPECTS(opts_.rows >= 1 && opts_.cols >= 1 && opts_.lanes >= 1);
  grid_ = GridOptions{.rows = opts_.rows,
                      .cols = opts_.cols,
                      .lanes = opts_.lanes,
                      .jobs = opts_.jobs};
  resolved_ = resolve_backend_name(opts_.backend, grid_);
}

std::uint64_t FunctionalLoomEngine::fc_cycles(const nn::Layer& layer) const {
  // The same cascade-aware model as the analytic LoomSimulator — best
  // `ways` slicing plus the cols-1 column-stagger initiation — excluding
  // the analytic kPipelineFill.
  const FcCascadePlan plan = plan_fc_cascade(
      opts_.rows, opts_.cols, opts_.lanes, layer.out.c, layer.in.elements(),
      static_cast<double>(layer.weight_precision),
      static_cast<double>(kBasePrecision), opts_.cascading);
  return static_cast<std::uint64_t>(
      std::llround(plan.cycles + static_cast<double>(opts_.cols - 1)));
}

ConvStats FunctionalLoomEngine::dispatch(
    const nn::Layer& layer, std::span<const nn::Tensor* const> inputs,
    const nn::Tensor& weights, const PreparedConv* prepared,
    std::span<nn::WideTensor* const> wides, std::string& used) {
  const bool conv = layer.kind == nn::LayerKind::kConv;
  const SliceSpec spec{.act_precision = layer.act_precision,
                       .weight_precision = layer.weight_precision,
                       .dynamic = opts_.dynamic_act_precision};
  const bool tuned = resolved_ == "auto";
  used = tuned ? "gemm" : resolved_;
  const auto t0 = Clock::now();
  ConvStats st;
  if (used == "scalar") {
    if (!sip_) sip_.emplace(grid_);
    if (conv) {
      st = sip_->run_conv_batch(layer, inputs, weights, spec, wides);
    } else {
      sip_->run_fc_batch(layer, inputs, weights, spec.weight_precision, wides);
    }
  } else {
    LOOM_EXPECTS(used == "gemm");
    if (!gemm_) gemm_.emplace(grid_);
    if (conv) {
      std::optional<PreparedConv> flat;
      std::uint64_t prep_ns = 0;
      if (prepared == nullptr) {
        const auto tp = Clock::now();
        prepared = &flat.emplace(
            prepare_conv(layer, weights, spec.weight_precision));
        prep_ns = ns_between(tp, Clock::now());
      }
      st = gemm_->run_conv_batch(layer, inputs, *prepared, spec, wides);
      st.pack_ns += prep_ns;
    } else {
      gemm_->run_fc_batch(layer, inputs, weights, spec.weight_precision, wides);
    }
  }
  if (tuned) {
    const std::uint64_t ns = ns_between(t0, Clock::now());
    const int batch = static_cast<int>(inputs.size());
    BackendAutotuner::instance().record(
        conv ? conv_tune_key(layer, spec, batch, grid_)
             : fc_tune_key(layer, spec.weight_precision, batch, grid_),
        used, ns);
  }
  return st;
}

FunctionalBatchLayerRun FunctionalLoomEngine::run_layer_batch(
    const nn::Layer& layer, std::span<const nn::Tensor> inputs,
    const nn::Tensor& weights, const PreparedConv* prepared, int out_bits) {
  LOOM_EXPECTS(!inputs.empty());
  check_layer_io(layer, inputs, weights);
  const bool conv = layer.kind == nn::LayerKind::kConv;
  FunctionalBatchLayerRun run;
  run.name = layer.name;
  run.out_bits = out_bits;
  const std::size_t batch = inputs.size();
  const nn::Shape out_shape = conv ? nn::Shape{layer.out.c, layer.out.h, layer.out.w}
                                   : nn::Shape{layer.out.c, 1, 1};
  run.wides.reserve(batch);  // no reallocation: wide_ptrs stay valid
  std::vector<const nn::Tensor*> in_ptrs(batch);
  std::vector<nn::WideTensor*> wide_ptrs(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    in_ptrs[r] = &inputs[r];
    wide_ptrs[r] = &run.wides.emplace_back(out_shape);
  }

  const auto t0 = Clock::now();
  const ConvStats st = dispatch(layer, in_ptrs, weights,
                                conv ? prepared : nullptr, wide_ptrs,
                                run.backend);
  const auto t1 = Clock::now();
  run.phases.pack_ms = static_cast<double>(st.pack_ns) / 1e6;
  run.phases.kernel_ms = std::max(0.0, ms_between(t0, t1) - run.phases.pack_ms);
  run.cycles = st.cycles;
  run.mean_streamed_precision =
      st.chunks ? st.streamed_pa / static_cast<double>(st.chunks) : 0.0;
  run.mean_plane_products =
      st.slabs ? static_cast<double>(st.plane_products) /
                     static_cast<double>(st.slabs)
               : 0.0;
  dispatcher_.note_streamed(st.act_bits_streamed, st.weight_bits_streamed,
                            st.detect_invocations, st.detect_values);
  if (!conv) {
    // Data-independent schedule: every request streams all 16 activation
    // bits and costs the same cycles, so the batch costs N solo passes.
    run.cycles = fc_cycles(layer) * batch;
    run.mean_streamed_precision = kBasePrecision;
  }
  requantize_batch(run, out_bits, opts_.relu);
  run.phases.epilogue_ms = ms_between(t1, Clock::now());
  return run;
}

FunctionalBatchLayerRun FunctionalLoomEngine::run_conv_batch(
    const nn::Layer& layer, std::span<const nn::Tensor> inputs,
    const nn::Tensor& weights, int out_bits) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kConv);
  return run_layer_batch(layer, inputs, weights, nullptr, out_bits);
}

FunctionalBatchLayerRun FunctionalLoomEngine::run_fc_batch(
    const nn::Layer& layer, std::span<const nn::Tensor> inputs,
    const nn::Tensor& weights, int out_bits) {
  LOOM_EXPECTS(layer.kind == nn::LayerKind::kFullyConnected);
  return run_layer_batch(layer, inputs, weights, nullptr, out_bits);
}

FunctionalLayerRun FunctionalLoomEngine::run_conv(const nn::Layer& layer,
                                                  const nn::Tensor& input,
                                                  const nn::Tensor& weights,
                                                  int out_bits) {
  return solo_run(run_conv_batch(layer, std::span(&input, 1), weights, out_bits));
}

FunctionalLayerRun FunctionalLoomEngine::run_fc(const nn::Layer& layer,
                                                const nn::Tensor& input,
                                                const nn::Tensor& weights,
                                                int out_bits) {
  return solo_run(run_fc_batch(layer, std::span(&input, 1), weights, out_bits));
}

FunctionalBatchNetworkRun FunctionalLoomEngine::run_network_batch(
    const nn::Network& net, std::span<const nn::Tensor> inputs,
    const WeightSet& weights) {
  LOOM_EXPECTS(!inputs.empty());
  if (const std::string why = weights.error_for(net); !why.empty()) {
    throw ConfigError("network '" + net.name() + "': " + why);
  }
  FunctionalBatchNetworkRun run;
  run.layers.reserve(net.size());
  // Each layer reads its producer's stored outputs in place; pooled
  // activations live in `pooled` until the next layer has consumed them.
  std::span<const nn::Tensor> current = inputs;
  std::vector<nn::Tensor> pooled;
  std::size_t weight_index = 0;

  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& layer = net.layer(i);
    if (!layer.has_weights()) {
      const auto t0 = Clock::now();
      std::vector<nn::Tensor> next;
      next.reserve(current.size());
      for (const nn::Tensor& t : current) {
        next.push_back(pool_activations(t, layer));
      }
      pooled = std::move(next);
      current = pooled;
      if (!run.layers.empty()) {
        run.layers.back().phases.epilogue_ms += ms_between(t0, Clock::now());
      }
      continue;
    }
    run.layers.push_back(run_layer_batch(layer, current, weights[weight_index],
                                         weights.prepared(weight_index),
                                         net.output_precision(i)));
    ++weight_index;
    current = run.layers.back().outputs;
    run.total_cycles += run.layers.back().cycles;
  }
  run.outputs.assign(current.begin(), current.end());
  return run;
}

FunctionalNetworkRun FunctionalLoomEngine::run_network(
    const nn::Network& net, const nn::Tensor& input, const WeightSet& weights) {
  return solo_network(run_network_batch(net, std::span(&input, 1), weights));
}

}  // namespace loom::sim
