#include "sim/dpnn_functional.hpp"

#include <algorithm>
#include <vector>

#include "arch/ip_unit.hpp"
#include "common/error.hpp"
#include "nn/im2col.hpp"

namespace loom::sim {

namespace {

/// One request through the baseline schedule. An FC layer is a single
/// group and window whose inner vector is the flattened input.
void run_layer(const GridOptions& grid, const nn::Layer& layer,
               const nn::Tensor& input, const nn::Tensor& weights,
               nn::WideTensor& wide) {
  const bool conv = layer.kind == nn::LayerKind::kConv;
  const int lanes = grid.lanes;
  const std::int64_t filters = grid.rows;
  const std::int64_t inner = layer.inner_length();
  const std::int64_t cog = layer.group_out_channels();
  std::vector<arch::IpUnit> ips(static_cast<std::size_t>(filters),
                                arch::IpUnit(lanes));
  std::vector<Value> acts(static_cast<std::size_t>(lanes));
  std::vector<Value> wvals(static_cast<std::size_t>(lanes));

  for (std::int64_t g = 0; g < layer.groups; ++g) {
    for (std::int64_t f0 = 0; f0 < cog; f0 += filters) {
      const std::int64_t filters_used = std::min(filters, cog - f0);
      for (std::int64_t window = 0; window < layer.windows(); ++window) {
        for (auto& ip : ips) ip.begin_output();
        for (std::int64_t base = 0; base < inner; base += lanes) {
          // One cycle: lanes activations broadcast to all IP units.
          const std::int64_t n = std::min<std::int64_t>(lanes, inner - base);
          for (std::int64_t l = 0; l < n; ++l) {
            std::int64_t idx = base + l;
            if (conv) idx = nn::im2col_input_index(layer, g, window, idx);
            acts[static_cast<std::size_t>(l)] = idx < 0 ? 0 : input.flat(idx);
          }
          std::fill(acts.begin() + static_cast<std::ptrdiff_t>(n), acts.end(), 0);
          for (std::int64_t f = 0; f < filters_used; ++f) {
            const std::int64_t co = g * cog + f0 + f;
            for (std::int64_t l = 0; l < n; ++l) {
              wvals[static_cast<std::size_t>(l)] =
                  weights.flat(co * inner + base + l);
            }
            std::fill(wvals.begin() + static_cast<std::ptrdiff_t>(n), wvals.end(), 0);
            ips[static_cast<std::size_t>(f)].cycle(acts, wvals);
          }
        }
        for (std::int64_t f = 0; f < filters_used; ++f) {
          const std::int64_t co = g * cog + f0 + f;
          wide.at3(co, window / layer.out.w, window % layer.out.w) =
              ips[static_cast<std::size_t>(f)].output();
        }
      }
    }
  }
}

}  // namespace

void run_ip_unit_oracle(const GridOptions& grid, const nn::Layer& layer,
                        std::span<const nn::Tensor* const> inputs,
                        const nn::Tensor& weights,
                        std::span<nn::WideTensor* const> wides) {
  LOOM_EXPECTS(inputs.size() == wides.size());
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    run_layer(grid, layer, *inputs[r], weights, *wides[r]);
  }
}

}  // namespace loom::sim
