// Tile scheduler for the constrained memory hierarchy (§4.5 / Figure 5).
//
// A layer rarely fits on chip whole: the activation memory holds a window
// slab, the weight memory a filter block, and everything else streams over
// the single LPDDR4 channel. build_tile_plan partitions a layer's
// (window x filter) iteration space into AM/WM-resident tiles and decides
// the loop order (dataflow) that moves the fewest DRAM bits:
//
//  * window slabs: contiguous window ranges whose input region plus output
//    chunk fits half the AM (double-buffered fills);
//  * filter tiles: output-channel ranges whose weights fit half the WM,
//    aligned to the architecture's concurrency quantum so the cycle models
//    can cost a tile exactly;
//  * weight-stream chunks: when even one filter quantum's weights exceed
//    the WM budget (the fat fully-connected layers), the weight stream is
//    cut into chunks that are double-buffered through the WM while the
//    same windows stay resident.
//
// Footprints are *bit-packed*: activations at the profile precision (or the
// per-window-block precisions the dynamic detector finds — leading zero
// planes are never transferred), weights at the profile weight precision
// for packing architectures, 16 bits for the bit-parallel baselines. The
// plan is pure arithmetic over geometry — no simulator types — so the same
// scheduler serves Loom, Stripes and DPNN.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.hpp"

namespace loom::mem {

/// Loop order of the tile schedule.
enum class Dataflow {
  kWeightStationary,  ///< outer filter tiles, inner window slabs
  kActStationary,     ///< outer window slabs, inner filter tiles
};

/// One schedulable unit: a (conv group, window slab, filter range) block,
/// possibly one chunk of a weight stream that exceeds the WM budget.
/// `*_fill_bits` / `out_drain_bits` are the DRAM transfers the executed
/// schedule assigns to this tile (zero when the data is already resident).
struct TileExtent {
  int conv_group = 0;
  std::int64_t window_begin = 0;
  std::int64_t window_end = 0;  ///< [begin, end)
  std::int64_t filter_begin = 0;
  std::int64_t filter_end = 0;  ///< group-relative output channels [begin, end)
  int chunk = 0;                ///< weight-stream chunk index within the block
  int chunk_count = 1;
  std::int64_t weight_values = 0;  ///< weights streamed by this chunk

  std::int64_t act_fill_bits = 0;
  std::int64_t weight_fill_bits = 0;
  std::int64_t out_drain_bits = 0;

  std::int64_t act_footprint_bits = 0;     ///< AM residency of the slab
  std::int64_t weight_footprint_bits = 0;  ///< WM residency of the chunk

  [[nodiscard]] std::int64_t window_count() const noexcept {
    return window_end - window_begin;
  }
  [[nodiscard]] std::int64_t filter_count() const noexcept {
    return filter_end - filter_begin;
  }
};

/// Everything the scheduler needs to know about one layer. Convolutional
/// layers fill the full geometry; fully-connected layers use windows = 1,
/// in_h = in_w = out_w = kernel_h = 1 and group_in_channels = Ci.
struct TilePlanRequest {
  // Iteration space.
  std::int64_t windows = 1;
  int conv_groups = 1;
  std::int64_t group_out_channels = 0;
  std::int64_t inner_length = 0;  ///< weights per output channel

  // Input-region geometry for slab footprints.
  std::int64_t group_in_channels = 0;
  std::int64_t in_h = 1;
  std::int64_t in_w = 1;
  std::int64_t out_w = 1;  ///< windows per output row
  int kernel_h = 1;
  int stride = 1;
  int pad = 0;

  // Tile quanta: slab sizes are multiples of window_quantum (the dynamic
  // detection / column granularity) and filter tiles multiples of
  // filter_quantum (the architecture's concurrent outputs), so cycle
  // models can cost tiles without changing the layer total.
  std::int64_t window_quantum = 16;
  std::int64_t filter_quantum = 16;

  // Storage precisions (bits per value as laid out in AM/WM and DRAM).
  int act_precision = kBasePrecision;
  /// Optional dynamic packing: per-(conv group, window block) detected
  /// precisions, flattened g * ceil(windows / window_quantum) + block.
  /// Empty means act_precision everywhere.
  std::vector<int> act_block_precision;
  int weight_precision = kBasePrecision;
  bool weights_bit_packed = false;  ///< packed_bits vs parallel_bits layout
  /// Optional essential-plane packing (sparse weight skipping): mean bits a
  /// weight occupies in DRAM/WM when groups store only the bit-planes in
  /// which some weight has a one, plus the plane-presence metadata. 0 keeps
  /// the dense weight_precision layout. Footprints are priced at
  /// ceil(values * mean) — fractional because the plane count varies per
  /// group while the planner works in whole-tile value counts.
  double weight_mean_plane_bits = 0.0;
  int out_precision = kBasePrecision;

  // Capacities (bits).
  std::int64_t am_bits = 0;
  std::int64_t wm_bits = 0;
};

struct TilePlan {
  /// Tiles in execution order of the chosen dataflow.
  std::vector<TileExtent> tiles;
  Dataflow dataflow = Dataflow::kWeightStationary;

  bool acts_resident = false;     ///< whole in+out activations fit the AM
  bool weights_resident = false;  ///< whole layer weights fit the WM

  std::int64_t window_tiles = 1;  ///< slabs per conv group
  std::int64_t filter_tiles = 1;  ///< filter blocks per conv group

  // DRAM totals of the executed schedule (sum over tiles).
  std::int64_t act_fill_bits = 0;
  std::int64_t weight_fill_bits = 0;
  std::int64_t out_drain_bits = 0;

  [[nodiscard]] std::int64_t total_fill_bits() const noexcept {
    return act_fill_bits + weight_fill_bits;
  }
  [[nodiscard]] std::int64_t total_dram_bits() const noexcept {
    return act_fill_bits + weight_fill_bits + out_drain_bits;
  }
};

/// Build the tile schedule for one layer. Throws ContractViolation when the
/// AM cannot hold even a single window-quantum slab (the caller sized the
/// memory below the hardware's minimum working set).
[[nodiscard]] TilePlan build_tile_plan(const TilePlanRequest& req);

}  // namespace loom::mem
