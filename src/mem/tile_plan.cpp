#include "mem/tile_plan.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "mem/bitpacked.hpp"

namespace loom::mem {

namespace {

/// DRAM/WM bits for `values` weights under the request's layout.
std::int64_t weight_layout_bits(const TilePlanRequest& req, std::int64_t values) {
  if (values <= 0) return 0;
  if (req.weight_mean_plane_bits > 0.0) {
    // Essential-plane packing: groups drop their all-zero bit-planes, so
    // footprints shrink to the measured mean occupancy (incl. metadata).
    return static_cast<std::int64_t>(
        std::ceil(static_cast<double>(values) * req.weight_mean_plane_bits));
  }
  return req.weights_bit_packed ? packed_bits(values, req.weight_precision)
                                : parallel_bits(values);
}

/// Bits one weight-stream chunk occupies. Normally the padded row layout;
/// when the budget sits below a single padded row (degenerate tiny WMs)
/// the stream trickles through unpadded, value by value.
std::int64_t chunk_layout_bits(const TilePlanRequest& req, std::int64_t values,
                               std::int64_t budget) {
  const std::int64_t padded = weight_layout_bits(req, values);
  if (padded <= budget) return padded;
  const int prec =
      req.weights_bit_packed ? req.weight_precision : kBasePrecision;
  return values * prec;
}

/// Largest weight-value count whose layout fits `budget` bits (>= 1).
std::int64_t max_weight_values_for(const TilePlanRequest& req,
                                   std::int64_t budget) {
  constexpr std::int64_t kRowBits = 2048;
  if (req.weights_bit_packed) {
    const std::int64_t rows = budget / (kRowBits * req.weight_precision);
    if (rows >= 1) return rows * kRowBits;
    return std::max<std::int64_t>(1, budget / req.weight_precision);
  }
  const std::int64_t values_per_row = kRowBits / kBasePrecision;
  const std::int64_t rows = budget / kRowBits;
  if (rows >= 1) return rows * values_per_row;
  return std::max<std::int64_t>(1, budget / kBasePrecision);
}

/// Input rows a window range touches (clamped to the feature map).
std::int64_t slab_region_rows(const TilePlanRequest& req, std::int64_t w0,
                              std::int64_t w1) {
  const std::int64_t out_row0 = w0 / req.out_w;
  const std::int64_t out_row1 = (w1 - 1) / req.out_w;
  const std::int64_t r0 =
      std::max<std::int64_t>(0, out_row0 * req.stride - req.pad);
  const std::int64_t r1 = std::min<std::int64_t>(
      req.in_h, out_row1 * req.stride - req.pad + req.kernel_h);
  return std::max<std::int64_t>(0, r1 - r0);
}

/// Elements of one conv group's input region for a window range.
std::int64_t slab_region_elements(const TilePlanRequest& req, std::int64_t w0,
                                  std::int64_t w1) {
  return req.group_in_channels * slab_region_rows(req, w0, w1) * req.in_w;
}

/// Detected packing precision of (conv group g, window range): the max over
/// the dynamic detector's window-block precisions, or the static profile
/// precision when no per-block table was supplied. Transfers skip the
/// leading zero planes above it.
int slab_act_precision(const TilePlanRequest& req, int g, std::int64_t w0,
                       std::int64_t w1) {
  if (req.act_block_precision.empty()) return req.act_precision;
  const std::int64_t blocks = ceil_div(req.windows, req.window_quantum);
  const std::int64_t b0 = w0 / req.window_quantum;
  const std::int64_t b1 = ceil_div(w1, req.window_quantum);
  int prec = 1;
  for (std::int64_t b = b0; b < b1; ++b) {
    prec = std::max(prec,
                    req.act_block_precision[static_cast<std::size_t>(
                        g * blocks + b)]);
  }
  return prec;
}

/// DRAM bits to fill one conv group's slice of a window slab.
std::int64_t slab_fill_bits(const TilePlanRequest& req, int g, std::int64_t w0,
                            std::int64_t w1) {
  return slab_region_elements(req, w0, w1) *
         static_cast<std::int64_t>(slab_act_precision(req, g, w0, w1));
}

/// AM residency of a slab: input region at the *provisioned* (profile)
/// precision — the AM layout cannot shrink below it — plus the output
/// chunk of the concurrently processed filter tile.
std::int64_t slab_footprint_bits(const TilePlanRequest& req, std::int64_t w0,
                                 std::int64_t w1, std::int64_t filter_tile) {
  const std::int64_t in_bits =
      slab_region_elements(req, w0, w1) * req.act_precision;
  const std::int64_t out_bits = (w1 - w0) * filter_tile * req.out_precision;
  return in_bits + out_bits;
}

/// True when every slab of size `s` fits `budget` (footprints are monotone
/// in the slab size, so the caller can binary-search on this).
bool slabs_fit(const TilePlanRequest& req, std::int64_t s,
               std::int64_t filter_tile, std::int64_t budget) {
  for (std::int64_t w0 = 0; w0 < req.windows; w0 += s) {
    const std::int64_t w1 = std::min(req.windows, w0 + s);
    if (slab_footprint_bits(req, w0, w1, filter_tile) > budget) return false;
  }
  return true;
}

}  // namespace

TilePlan build_tile_plan(const TilePlanRequest& req) {
  LOOM_EXPECTS(req.windows >= 1 && req.conv_groups >= 1);
  LOOM_EXPECTS(req.group_out_channels >= 1 && req.inner_length >= 1);
  LOOM_EXPECTS(req.window_quantum >= 1 && req.filter_quantum >= 1);
  LOOM_EXPECTS(req.act_precision >= 1 && req.act_precision <= kBasePrecision);
  LOOM_EXPECTS(req.weight_precision >= 1 &&
               req.weight_precision <= kBasePrecision);
  // Essential-plane packing only makes sense for a bit-packed layout. The
  // bound allows the worst case of dense full-precision weights: all 16
  // magnitude planes essential plus the sign pass and presence bitmap.
  LOOM_EXPECTS(req.weight_mean_plane_bits >= 0.0 &&
               (req.weight_mean_plane_bits == 0.0 ||
                (req.weights_bit_packed &&
                 req.weight_mean_plane_bits <=
                     static_cast<double>(kBasePrecision) + 2.0)));
  LOOM_EXPECTS(req.out_precision >= 1 && req.out_precision <= kBasePrecision);
  LOOM_EXPECTS(req.am_bits > 0 && req.wm_bits > 0);
  LOOM_EXPECTS(req.act_block_precision.empty() ||
               static_cast<std::int64_t>(req.act_block_precision.size()) ==
                   req.conv_groups * ceil_div(req.windows, req.window_quantum));

  TilePlan plan;

  // ---- Residency ----------------------------------------------------------
  const std::int64_t in_elements =
      req.conv_groups * req.group_in_channels * req.in_h * req.in_w;
  const std::int64_t out_elements =
      req.windows * req.conv_groups * req.group_out_channels;
  const std::int64_t act_total_bits = in_elements * req.act_precision +
                                      out_elements * req.out_precision;
  plan.acts_resident = act_total_bits <= req.am_bits;

  const std::int64_t group_weight_values =
      req.group_out_channels * req.inner_length;
  const std::int64_t weights_total_bits =
      req.conv_groups * weight_layout_bits(req, group_weight_values);
  plan.weights_resident = weights_total_bits <= req.wm_bits;

  // ---- Filter tiling ------------------------------------------------------
  // Fills are double-buffered: plan them against half of each capacity.
  const std::int64_t wm_budget = std::max<std::int64_t>(1, req.wm_bits / 2);
  std::int64_t filter_tile;
  if (plan.weights_resident) {
    filter_tile = req.group_out_channels;
  } else {
    // Largest quantum multiple whose weights fit the (double-buffered) WM
    // budget; a single quantum that still spills is handled below by
    // cutting its weight stream into chunks.
    filter_tile = req.filter_quantum;
    while (filter_tile + req.filter_quantum <= req.group_out_channels &&
           weight_layout_bits(req, (filter_tile + req.filter_quantum) *
                                       req.inner_length) <= wm_budget) {
      filter_tile += req.filter_quantum;
    }
  }
  plan.filter_tiles = ceil_div(req.group_out_channels, filter_tile);

  // ---- Window tiling ------------------------------------------------------
  std::int64_t slab = ceil_div(req.windows, req.window_quantum) *
                      req.window_quantum;  // one slab covering everything
  if (!plan.acts_resident) {
    const std::int64_t am_budget = std::max<std::int64_t>(1, req.am_bits / 2);
    const std::int64_t ft_cap = std::min(filter_tile, req.group_out_channels);
    if (slabs_fit(req, slab, ft_cap, am_budget)) {
      // whole window axis fits the budget (only the totals spill)
    } else if (!slabs_fit(req, req.window_quantum, ft_cap, am_budget)) {
      // Fall back to single-buffered fills of the minimum slab; below the
      // full capacity the hardware cannot form a working set at all.
      LOOM_EXPECTS(slabs_fit(req, req.window_quantum, ft_cap, req.am_bits));
      slab = req.window_quantum;
    } else {
      // Binary search the largest fitting quantum multiple (monotone).
      std::int64_t lo = 1;  // in quanta; known to fit
      std::int64_t hi = ceil_div(req.windows, req.window_quantum);  // spills
      while (lo + 1 < hi) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        if (slabs_fit(req, mid * req.window_quantum, ft_cap, am_budget)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      slab = lo * req.window_quantum;
    }
  }
  plan.window_tiles = ceil_div(req.windows, slab);

  // ---- Dataflow choice ----------------------------------------------------
  // Closed-form DRAM totals of both loop orders; pick the cheaper. Chunked
  // filter tiles can never stay weight-stationary (their stream exceeds the
  // WM), so they re-stream once per slab in either order.
  const bool spill = !plan.acts_resident;
  std::int64_t act_once = 0;
  for (int g = 0; g < req.conv_groups; ++g) {
    for (std::int64_t w0 = 0; w0 < req.windows; w0 += slab) {
      act_once += slab_fill_bits(req, g, w0, std::min(req.windows, w0 + slab));
    }
  }
  std::int64_t weights_once = 0;
  std::int64_t weights_ws = 0;  // weight traffic under weight-stationary
  for (std::int64_t f0 = 0; f0 < req.group_out_channels; f0 += filter_tile) {
    const std::int64_t values =
        (std::min(req.group_out_channels, f0 + filter_tile) - f0) *
        req.inner_length;
    const std::int64_t bits = weight_layout_bits(req, values);
    const bool chunked = !plan.weights_resident && bits > wm_budget;
    weights_once += bits;
    weights_ws += chunked ? bits * plan.window_tiles : bits;
  }
  weights_once *= req.conv_groups;
  weights_ws *= req.conv_groups;

  const std::int64_t ws_total =
      weights_ws + (spill ? plan.filter_tiles * act_once : 0);
  const std::int64_t as_total =
      (plan.weights_resident ? weights_once
                             : weights_once * plan.window_tiles) +
      (spill ? act_once : 0);
  plan.dataflow = ws_total <= as_total ? Dataflow::kWeightStationary
                                       : Dataflow::kActStationary;

  // ---- Tile emission (execution order) ------------------------------------
  const auto emit = [&](int g, std::int64_t w0, std::int64_t f0,
                        bool first_slab_of_block, bool fill_act) {
    const std::int64_t w1 = std::min(req.windows, w0 + slab);
    const std::int64_t f1 =
        std::min(req.group_out_channels, f0 + filter_tile);
    const std::int64_t values = (f1 - f0) * req.inner_length;
    const std::int64_t block_bits = weight_layout_bits(req, values);
    const bool chunked = !plan.weights_resident && block_bits > wm_budget;
    const std::int64_t max_values = max_weight_values_for(req, wm_budget);
    const int chunks =
        chunked ? static_cast<int>(ceil_div(values, max_values)) : 1;
    const std::int64_t base = values / chunks;
    const std::int64_t rem = values % chunks;

    for (int c = 0; c < chunks; ++c) {
      TileExtent t;
      t.conv_group = g;
      t.window_begin = w0;
      t.window_end = w1;
      t.filter_begin = f0;
      t.filter_end = f1;
      t.chunk = c;
      t.chunk_count = chunks;
      t.weight_values = base + (c < rem ? 1 : 0);
      t.weight_footprint_bits =
          chunked ? chunk_layout_bits(req, t.weight_values, wm_budget)
                  : block_bits;
      t.act_footprint_bits = slab_footprint_bits(req, w0, w1, f1 - f0);
      // Weights: chunked streams refill on every slab pass; resident blocks
      // only on their first.
      if (chunked || first_slab_of_block) {
        t.weight_fill_bits = t.weight_footprint_bits;
      }
      if (spill && c == 0 && fill_act) {
        t.act_fill_bits = slab_fill_bits(req, g, w0, w1);
      }
      if (spill && c == chunks - 1) {
        t.out_drain_bits = (w1 - w0) * (f1 - f0) * req.out_precision;
      }
      plan.act_fill_bits += t.act_fill_bits;
      plan.weight_fill_bits += t.weight_fill_bits;
      plan.out_drain_bits += t.out_drain_bits;
      plan.tiles.push_back(t);
    }
  };

  plan.tiles.reserve(static_cast<std::size_t>(
      req.conv_groups * plan.filter_tiles * plan.window_tiles));
  if (plan.dataflow == Dataflow::kWeightStationary) {
    for (int g = 0; g < req.conv_groups; ++g) {
      for (std::int64_t f0 = 0; f0 < req.group_out_channels;
           f0 += filter_tile) {
        bool first_slab = true;
        for (std::int64_t w0 = 0; w0 < req.windows; w0 += slab) {
          // Weight-stationary refetches the slab for every filter pass.
          emit(g, w0, f0, first_slab, /*fill_act=*/true);
          first_slab = false;
        }
      }
    }
  } else {
    bool first_slab = true;
    for (std::int64_t w0 = 0; w0 < req.windows; w0 += slab) {
      for (int g = 0; g < req.conv_groups; ++g) {
        bool first_block_of_group = true;
        for (std::int64_t f0 = 0; f0 < req.group_out_channels;
             f0 += filter_tile) {
          // Act-stationary fills each slab slice once; weights restream per
          // slab unless the whole layer's weights are WM-resident.
          const bool fill_w = !plan.weights_resident || first_slab;
          emit(g, w0, f0, fill_w, first_block_of_group);
          first_block_of_group = false;
        }
      }
      first_slab = false;
    }
  }
  return plan;
}

}  // namespace loom::mem
