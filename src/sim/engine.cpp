#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace loom::sim::engine {

namespace {

/// Per-(conv group, 16-window block) packed precisions from the dynamic
/// detector's OR planes: a block's storage precision is the worst of its
/// input-chunk group precisions (every bit plane up to it is transferred).
std::vector<int> detected_block_precisions(LayerWorkload& lw,
                                           std::int64_t window_quantum) {
  // The plan's window-block granularity equals the architecture's dynamic
  // detection group width (16 windows for Loom and DStripes), so the
  // packed transfer sizes follow exactly what the detector would emit.
  const nn::Layer& layer = lw.layer();
  const ActPrecisionTable table =
      lw.act_group_precision_table(static_cast<int>(window_quantum));
  const std::int64_t blocks = ceil_div(layer.windows(), window_quantum);
  LOOM_EXPECTS(blocks == table.wb_count());
  std::vector<int> prec(static_cast<std::size_t>(layer.groups * blocks), 1);
  for (int g = 0; g < layer.groups; ++g) {
    for (std::int64_t b = 0; b < blocks; ++b) {
      int p = 1;
      for (std::int64_t ic = 0; ic < table.ic_count(); ++ic) {
        p = std::max(p, table.at(g, b, ic));
      }
      prec[static_cast<std::size_t>(g * blocks + b)] = p;
    }
  }
  return prec;
}

}  // namespace

void TimingCore::apply(LayerResult& r, LayerWorkload& lw,
                       const LayerStorage& storage,
                       const BlockCompute& block_compute) {
  const nn::Layer& layer = lw.layer();
  const bool conv = layer.kind == nn::LayerKind::kConv;

  mem::TilePlanRequest req;
  req.windows = layer.windows();
  req.conv_groups = conv ? layer.groups : 1;
  req.group_out_channels = conv ? layer.group_out_channels() : layer.out.c;
  req.inner_length = layer.inner_length();
  req.group_in_channels =
      conv ? layer.group_in_channels() : layer.in.elements();
  req.in_h = conv ? layer.in.h : 1;
  req.in_w = conv ? layer.in.w : 1;
  req.out_w = conv ? layer.out.w : 1;
  req.kernel_h = conv ? layer.kernel_h : 1;
  req.stride = conv ? layer.stride : 1;
  req.pad = conv ? layer.pad : 0;
  req.window_quantum = storage.window_quantum;
  req.filter_quantum = storage.filter_quantum;
  req.act_precision = storage.act_precision;
  req.weight_precision = storage.weight_precision;
  req.weights_bit_packed = storage.weights_bit_packed;
  req.weight_mean_plane_bits = storage.weight_mean_plane_bits;
  req.out_precision = storage.out_precision;
  req.am_bits = am_bits_;
  req.wm_bits = wm_bits_;
  if (conv && storage.act_dynamic) {
    req.act_block_precision =
        detected_block_precisions(lw, storage.window_quantum);
  }

  const mem::TilePlan plan = mem::build_tile_plan(req);

  // ---- Per-tile compute: block cycles split over weight-stream chunks ----
  // Chunks of one block are consecutive in the plan; shares follow the
  // cumulative weight count so they sum to the block exactly.
  std::vector<std::uint64_t> compute(plan.tiles.size(), 0);
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < plan.tiles.size();) {
    const mem::TileExtent& head = plan.tiles[i];
    const auto n = static_cast<std::size_t>(head.chunk_count);
    const auto block = static_cast<std::uint64_t>(
        std::llround(std::max(0.0, block_compute(head))));
    std::int64_t total_values = 0;
    for (std::size_t j = 0; j < n; ++j) {
      total_values += plan.tiles[i + j].weight_values;
    }
    std::int64_t cum = 0;
    std::uint64_t given = 0;
    for (std::size_t j = 0; j < n; ++j) {
      cum += plan.tiles[i + j].weight_values;
      const std::uint64_t upto =
          total_values > 0 ? block * static_cast<std::uint64_t>(cum) /
                                 static_cast<std::uint64_t>(total_values)
                           : block;
      compute[i + j] = upto - given;
      given = upto;
    }
    assigned += block;
    i += n;
  }
  // The layer total also carries pipeline fill / stagger constants and the
  // float rounding of the analytic model; pin any residual on the first
  // tile so constrained compute stays identical to the unconstrained run.
  // The residual is recorded on the trace and test-pinned to exactly those
  // constants, so a tile callback drifting from its analytic loop fails
  // loudly instead of being silently absorbed here.
  const std::int64_t residual = static_cast<std::int64_t>(r.compute_cycles) -
                                static_cast<std::int64_t>(assigned);
  if (!compute.empty()) {
    if (residual >= 0) {
      compute.front() += static_cast<std::uint64_t>(residual);
    } else {
      compute.front() -=
          std::min(compute.front(), static_cast<std::uint64_t>(-residual));
    }
  }

  // ---- Run the shared timeline -------------------------------------------
  const auto dram_cycles = [&](std::int64_t bits) {
    return dram_.cycles_for_bits(static_cast<std::uint64_t>(bits));
  };
  timeline_.begin_layer();
  for (std::size_t i = 0; i < plan.tiles.size(); ++i) {
    const mem::TileExtent& t = plan.tiles[i];
    timeline_.add_tile(dram_cycles(t.weight_fill_bits),
                       dram_cycles(t.act_fill_bits),
                       dram_cycles(t.out_drain_bits), compute[i]);
  }
  const mem::MemoryTimeline::LayerStats stats = timeline_.end_layer();

  r.stall_cycles = stats.stall_cycles;
  r.activity.dram_read_bits =
      static_cast<std::uint64_t>(plan.act_fill_bits + plan.weight_fill_bits);
  r.activity.dram_write_bits = static_cast<std::uint64_t>(plan.out_drain_bits);
  r.activity.dram_stall_cycles = stats.stall_cycles;

  r.memory.tiles = stats.tiles;
  r.memory.act_fill_bits = static_cast<std::uint64_t>(plan.act_fill_bits);
  r.memory.weight_fill_bits =
      static_cast<std::uint64_t>(plan.weight_fill_bits);
  r.memory.out_drain_bits = static_cast<std::uint64_t>(plan.out_drain_bits);
  r.memory.fill_cycles = stats.fill_cycles;
  r.memory.stall_cycles = stats.stall_cycles;
  r.memory.max_tile_stall = stats.max_tile_stall;
  r.memory.stalled_tiles = stats.stalled_tiles;
  r.memory.compute_residual_cycles = residual;
  r.memory.acts_resident = plan.acts_resident;
  r.memory.weights_resident = plan.weights_resident;
  r.memory.dataflow = static_cast<std::uint8_t>(plan.dataflow);
}

}  // namespace loom::sim::engine
