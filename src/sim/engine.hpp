// Shared memory-timing core for the analytic cycle simulators (§4.5 /
// Figure 5 constrained mode).
//
// Each simulator owns its compute model; the whole-layer DRAM accounting
// lives here once. TimingCore builds a LayerTilePlan (mem/tile_plan) from
// the layer geometry and the architecture's storage precisions, prices
// every tile's fills on the LPDDR4 channel, and runs the double-buffered
// MemoryTimeline so compute and transfers overlap per tile. The simulator
// contributes one callback: the compute cycles of a (conv group, window
// range, filter range) block under its own cycle model. Tile quanta are
// chosen so the blocks sum *exactly* to the layer's unconstrained compute
// cycles — the constrained mode changes stalls and traffic, never compute.
#pragma once

#include <functional>

#include "common/bitops.hpp"
#include "mem/hierarchy.hpp"
#include "mem/tile_plan.hpp"
#include "mem/timeline.hpp"
#include "sim/result.hpp"
#include "sim/workload.hpp"

namespace loom::sim::engine {

/// How one architecture lays the layer out in memory.
struct LayerStorage {
  int act_precision = kBasePrecision;  ///< input activations (AM / DRAM)
  bool act_dynamic = false;  ///< pack slabs at the detected per-block precision
  int weight_precision = kBasePrecision;
  bool weights_bit_packed = false;  ///< Loom's packed WM layout vs 16-bit rows
  /// Mean bits per weight under essential-plane packing (sparse weight
  /// skipping); 0 keeps the dense weight_precision layout. Forwarded to
  /// TilePlanRequest::weight_mean_plane_bits.
  double weight_mean_plane_bits = 0.0;
  int out_precision = kBasePrecision;

  /// Tile quanta matching the architecture's concurrency (see tile_plan).
  std::int64_t window_quantum = 16;
  std::int64_t filter_quantum = 16;
};

/// Compute cycles of one (conv group, window range, filter range) block
/// under the simulator's cycle model. Called once per block; weight-stream
/// chunks of a block split the result proportionally to their weights.
using BlockCompute = std::function<double(const mem::TileExtent&)>;

class TimingCore {
 public:
  /// One core per run, built from the run's resolved memory sizing; the
  /// timeline it owns spans all layers, so fills prefetch across layer
  /// boundaries.
  explicit TimingCore(const mem::MemorySystemConfig& cfg)
      : am_bits_(cfg.am_bytes * 8),
        wm_bits_(cfg.wm_bytes * 8),
        dram_(cfg.dram) {}

  /// Apply constrained-memory timing to `r` (whose compute_cycles and
  /// activity the simulator already filled): builds the tile plan, runs
  /// the shared timeline and fills r.stall_cycles, r.memory and the DRAM
  /// traffic in r.activity. Off-chip traffic/stalls come only from here.
  void apply(LayerResult& r, LayerWorkload& lw, const LayerStorage& storage,
             const BlockCompute& block_compute);

  /// Drain-tail cycles past the final compute; the caller adds them to the
  /// last layer's stall so RunResult::cycles() covers the whole timeline.
  [[nodiscard]] std::uint64_t finish() { return timeline_.finish(); }

 private:
  std::int64_t am_bits_;
  std::int64_t wm_bits_;
  mem::DramChannel dram_;
  mem::MemoryTimeline timeline_;
};

/// Block callback of a convolutional chunk model: the tile's window blocks
/// (`window_par` windows each) times every input chunk, summing
/// `chunk_cycles(conv group, window block, input chunk)` — the same
/// per-chunk cost the model's layer loop sums — once per block of
/// `filter_par` filters.
template <class ChunkCycles>
[[nodiscard]] BlockCompute conv_block_compute(std::int64_t window_par,
                                              std::int64_t filter_par,
                                              std::int64_t ic_count,
                                              ChunkCycles chunk_cycles) {
  return [=](const mem::TileExtent& t) {
    double cyc = 0.0;
    for (std::int64_t wb = t.window_begin / window_par;
         wb * window_par < t.window_end; ++wb) {
      for (std::int64_t ic = 0; ic < ic_count; ++ic) {
        cyc += chunk_cycles(t.conv_group, wb, ic);
      }
    }
    return cyc * static_cast<double>(ceil_div(t.filter_count(), filter_par));
  };
}

}  // namespace loom::sim::engine
