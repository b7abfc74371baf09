// Workload preparation: turns a profiled network into the data views the
// cycle-accurate simulators consume.
//
//  * Per layer, a synthetic input-activation tensor is materialized from a
//    distribution calibrated so per-group dynamic precision detection
//    reproduces the paper-implied trims (quant/calibration).
//  * act_group_precision_table(cols) holds, for every window block `wb`,
//    input chunk `ic` and conv group `g`, the precision the dynamic
//    detector would find for the activations processed concurrently when
//    `cols` windows run in parallel; act_group_term_table(cols) holds their
//    essential bit-plane counts. Both come from one pass over the layer's
//    OR planes (sim/or_planes.hpp), so the simulators read plain arrays.
//  * Weight tensors are streamed (never materialized) from sources
//    calibrated to Table 3's effective per-group precisions. One sampled
//    pass over the 16-weight groups measures the mean effective precision
//    (the §4.6 performance estimate), the essential bit-planes and the NAF
//    terms together.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "nn/network.hpp"
#include "nn/synthetic.hpp"
#include "nn/tensor.hpp"
#include "quant/profiles.hpp"
#include "sim/or_planes.hpp"

namespace loom::sim {

struct WorkloadOptions {
  std::uint64_t seed = 1;
};

/// Immutable dense view of one layer's detected per-chunk activation
/// precisions for a fixed `cols`, returned by
/// LayerWorkload::act_group_precision_table. `at` is a single byte load —
/// the simulators' steady-state path. Valid for the lifetime of the owning
/// LayerWorkload.
class ActPrecisionTable {
 public:
  ActPrecisionTable() = default;

  [[nodiscard]] int at(std::int64_t g, std::int64_t wb,
                       std::int64_t ic) const noexcept {
    assert(values_ != nullptr && g >= 0 && wb >= 0 && wb < wb_count_ &&
           ic >= 0 && ic < ic_count_);
    return values_[static_cast<std::size_t>((g * wb_count_ + wb) * ic_count_ +
                                            ic)];
  }

  /// Table extents, so consumers can contract-check their loop bounds once
  /// per layer (a lanes/cols mismatch would otherwise read out of bounds).
  [[nodiscard]] std::int64_t wb_count() const noexcept { return wb_count_; }
  [[nodiscard]] std::int64_t ic_count() const noexcept { return ic_count_; }

 private:
  friend class LayerWorkload;
  ActPrecisionTable(const std::uint8_t* values, std::int64_t wb_count,
                    std::int64_t ic_count) noexcept
      : values_(values), wb_count_(wb_count), ic_count_(ic_count) {}

  const std::uint8_t* values_ = nullptr;
  std::int64_t wb_count_ = 0;
  std::int64_t ic_count_ = 0;
};

/// Per-chunk activation *term counts* (popcount of the detection group's OR
/// mask) share the precision table's layout and extents exactly — the
/// values are just popcounts instead of leading-one positions.
using ActTermTable = ActPrecisionTable;

class LayerWorkload {
 public:
  LayerWorkload(const nn::Layer& layer, std::size_t layer_index,
                const quant::PrecisionProfile& profile,
                const WorkloadOptions& opts);

  [[nodiscard]] const nn::Layer& layer() const noexcept { return layer_; }

  /// Detected precision of every activation group (conv group g, window
  /// block wb, input chunk ic) with `cols` concurrent windows, clipped to
  /// the layer Pa. Conv layers only, `cols` >= 1. Thread-safe; the view
  /// stays valid for this workload's lifetime.
  [[nodiscard]] ActPrecisionTable act_group_precision_table(int cols);

  /// The number of *essential* activation bit-planes of every detection
  /// group (popcount of its OR mask) — the cycles a term-serial sequencer
  /// synchronizing the group at its slowest lane spends on the activation
  /// side. Never above the detected precision; clipped to [1, Pa]. Same
  /// contract and geometry as act_group_precision_table.
  [[nodiscard]] ActTermTable act_group_term_table(int cols);

  /// Weight-side NAF term statistics for the term-serial (Laconic-style)
  /// cycle model. NAF is what the hardware actually serializes — signed
  /// ±2^k digits, no separate sign pass — unlike essential_weight_planes'
  /// sign-magnitude planes.
  struct WeightTermStats {
    /// Mean nonzero NAF digits per weight: the linear-scaling estimate's
    /// operand (every lane independent, zero digits skipped for free).
    double mean_per_weight = 0.0;
    /// Mean over 16-weight groups of the popcount of the *union* of NAF
    /// digit positions (>= 1): a group sequencer synchronized at the
    /// slowest lane walks every position at which any lane has a digit.
    double synced_per_group = 1.0;
  };
  [[nodiscard]] WeightTermStats naf_weight_terms();

  /// Mean effective per-group (16 weights) precision (paper Table 3 /
  /// §4.6).
  [[nodiscard]] double effective_weight_precision();

  /// Honest per-chunk weight timing for the ablation: expected max group
  /// precision over `rows_groups` weight groups loaded together.
  [[nodiscard]] double honest_weight_precision(int rows_groups);

  /// §6 sparsity extension: mean number of *essential* weight bit-planes
  /// per 16-weight group — the popcount of the OR of the magnitudes plus
  /// one sign pass (sign-magnitude serialization). Bit positions at which
  /// every weight of the group is zero can be skipped entirely, unlike
  /// precision trimming which only removes leading planes.
  ///
  /// Term-definition note: this counts *sign-magnitude* planes — the layout
  /// weights occupy in storage, so it is what the memory core prices when
  /// LoomConfig::sparse_weight_skipping packs the WM/DRAM footprint (and
  /// what that flag's Loom timing estimate uses). The *compute* term counts
  /// of the term-serial simulator instead follow
  /// the NAF digit serialization (naf_weight_terms) — fewer terms than
  /// essential planes, since NAF folds the sign pass into signed digits and
  /// needs no digit at runs of adjacent ones. test_laconic_sim.cpp pins
  /// both counts on a known tensor.
  [[nodiscard]] double essential_weight_planes();

  /// Static profile precisions.
  [[nodiscard]] int profile_act_precision() const noexcept {
    return layer_.act_precision;
  }
  [[nodiscard]] int profile_weight_precision() const noexcept {
    return layer_.weight_precision;
  }

  /// The layer's calibrated weight stream (Table 3 target precision).
  [[nodiscard]] nn::SyntheticSource weight_source() const;

  /// Conv layers: the input-activation distribution, calibrated on first
  /// use to the layer's own detection groups. Thread-safe.
  [[nodiscard]] nn::SyntheticSpec input_spec();

  /// Precision at which this layer's *output* activations are stored (the
  /// consumer layer's profile precision; 16 when unknown).
  int out_precision = kBasePrecision;

 private:
  /// The three statistics of the sampled 16-weight groups behind
  /// effective_weight_precision, essential_weight_planes and
  /// naf_weight_terms, measured together in one pass over the calibrated
  /// weight source.
  struct WeightStats {
    double effective_precision = 0.0;
    double essential_planes = 1.0;
    WeightTermStats naf;
  };

  /// Both per-chunk tables of one `cols`, [g][wb][ic] row-major. Built
  /// whole before publication and never modified after.
  struct ColsTables {
    std::int64_t wb_count = 0;
    std::vector<std::uint8_t> precision;
    std::vector<std::uint8_t> terms;
  };

  /// The memoized weight-group statistics; the first call streams the
  /// sampled groups once under weight_mutex_.
  [[nodiscard]] const WeightStats& weight_stats();

  void ensure_input_tensor();
  /// Materializes the input tensor and builds the activation OR planes
  /// (requires the exclusive memo lock).
  void ensure_planes();
  /// The tables for `cols`; the first call per `cols` fills both in one
  /// pass over the OR planes under the exclusive lock.
  [[nodiscard]] const ColsTables& tables_for(int cols);
  /// Refine the activation distribution so the mean detected precision over
  /// the layer's *actual* (window-block, input-chunk) groups — which share
  /// values between overlapping windows — hits the calibration target.
  void ensure_group_calibrated();

  const nn::Layer& layer_;
  std::size_t layer_index_;
  WorkloadOptions opts_;
  /// Guards the activation-side memo state (input tensor + OR planes +
  /// group tables) so one workload can serve several simulator threads
  /// (core runner `jobs` fan-out). Table lookups take it shared —
  /// concurrent simulators of one network don't serialize — and only the
  /// first call per `cols` takes it exclusive.
  std::shared_mutex memo_mutex_;
  /// Guards the weight-side memos. Separate from memo_mutex_ so the long
  /// weight streams never block activation lookups; computing *under* the
  /// lock is deliberate — it makes same-layer duplicate requests wait for
  /// one result instead of redoing the work.
  std::mutex weight_mutex_;
  double act_target_precision_;   ///< calibration target (Pa - trim)
  double table3_target_ = 0.0;    ///< effective weight precision target
  // Conv activation-group geometry, derived once at construction.
  std::int64_t windows_ = 0;
  std::int64_t ic_count_ = 0;
  std::optional<nn::Tensor> input_;
  std::optional<ActOrPlanes> planes_;
  nn::SyntheticSpec act_spec_;
  bool group_calibrated_ = false;
  std::optional<WeightStats> weight_stats_;
  std::unordered_map<int, ColsTables> group_tables_;
  std::unordered_map<int, double> honest_cache_;
};

class NetworkWorkload {
 public:
  /// Copies `net`, which must already carry profile precisions
  /// (quant::apply_profile). The workload owns its network so it can be
  /// shared across several simulator runs.
  NetworkWorkload(nn::Network net, const quant::PrecisionProfile& profile,
                  WorkloadOptions opts = {});

  [[nodiscard]] const nn::Network& network() const noexcept { return net_; }
  [[nodiscard]] const quant::PrecisionProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] LayerWorkload& layer(std::size_t index);

 private:
  nn::Network net_;
  quant::PrecisionProfile profile_;
  WorkloadOptions opts_;
  /// One flag per layer slot: lazy creation races construct each layer
  /// exactly once (call_once publishes the pointer), while *different*
  /// layers construct concurrently.
  std::unique_ptr<std::once_flag[]> layer_once_;
  std::vector<std::unique_ptr<LayerWorkload>> layers_;
};

/// Convenience: build a profiled zoo network and its workload.
[[nodiscard]] std::unique_ptr<NetworkWorkload> prepare_network(
    const std::string& zoo_name, quant::AccuracyTarget target,
    WorkloadOptions opts = {});

}  // namespace loom::sim
