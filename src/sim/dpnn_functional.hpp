// Functional DPNN: the bit-parallel baseline on the shared functional
// engine (sim/functional.hpp). Models the IP units (lanes MACs + adder tree
// per filter) over real layers, producing exact outputs and the wall-clock
// cycles of the baseline's window-sequential schedule — the ground truth
// the DPNN cycle model is cross-validated against.
//
// Values come from the gemm kernel (sim/gemm_engine.hpp) at full signed
// 16-bit precision for both operands (kDpnnSpec), bit-identical to driving
// arch::IpUnit cycle by cycle; cycles follow the data-independent schedule,
// one per (group, filter block, window, input chunk), so a batch of N costs
// N x solo. The scalar route (LOOM_FUNCTIONAL_SCALAR=1, backend "scalar",
// or an unpackable grid such as lanes > 32) drives the arch::IpUnit loops of
// run_ip_unit_oracle instead of gemm.
#pragma once

#include <span>

#include "sim/functional.hpp"

namespace loom::sim {

/// DPNN semantics for the word-parallel backend: every operand at full
/// signed 16-bit precision, no dynamic trimming. `rows`/`cols` only shape
/// the slab walk — the exact accumulators do not depend on them.
inline constexpr SliceSpec kDpnnSpec{
    .act_precision = kBasePrecision,
    .weight_precision = kBasePrecision,
    .act_signed = true,
    .dynamic = false};

/// DPNN's scalar oracle: `grid.rows` arch::IpUnit filters of `grid.lanes`
/// lanes each, walking the baseline schedule one request at a time. Conv
/// and FC layers alike (an FC layer is one group and one window); reports
/// no stats.
void run_ip_unit_oracle(const GridOptions& grid, const nn::Layer& layer,
                        std::span<const nn::Tensor* const> inputs,
                        const nn::Tensor& weights,
                        std::span<nn::WideTensor* const> wides);

/// IP units (filters) of the paper's DPNN baseline.
inline constexpr int kDpnnFilters = 8;

/// The DPNN baseline grid: `rows` IP units (filters) x `lanes` activation
/// lanes, default kDpnnFilters x 16. `cols` is fixed at 16;
/// `dynamic_act_precision` and `cascading` are Loom-only and ignored.
class FunctionalDpnnEngine final : public FunctionalEngine {
 public:
  /// Passed options replace the default whole, and FunctionalOptions'
  /// own `rows` default is Loom's 16: set `.rows = kDpnnFilters` to keep
  /// the baseline's filter count (it sets the filter block and the cycles).
  explicit FunctionalDpnnEngine(FunctionalOptions opts = {.rows = kDpnnFilters})
      : FunctionalEngine(std::move(opts), Arch::kDpnn) {}
};

}  // namespace loom::sim
