// Functional SIP-grid tile: rows x cols SIPs sharing row weight buses and
// column activation buses (paper Figure 2b). The tile executes real
// conv blocks (rows = filters, cols = windows) bit-serially, producing exact
// outputs plus cycle counts.
// The cycle-accurate simulators use closed-form counting for full networks;
// this component is the semantic reference that the tests hold them to.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/sip.hpp"
#include "common/bitops.hpp"

namespace loom::arch {

struct TileConfig {
  int rows = 16;
  int cols = 16;
  int lanes = 16;
  bool act_signed = false;
};

class SipTile {
 public:
  explicit SipTile(TileConfig cfg);

  struct BlockResult {
    /// outputs[r * cols + c] = inner product of weights row r with
    /// activations column c.
    std::vector<Wide> outputs;
    std::uint64_t cycles = 0;
  };

  /// Convolutional block: every SIP(r,c) computes the full inner product of
  /// `weights[r]` (one filter) against `acts[c]` (one window), both of
  /// length L, processed in chunks of `lanes` over pa x pw cycles each.
  [[nodiscard]] BlockResult conv_block(
      const std::vector<std::vector<Value>>& acts_by_col,
      const std::vector<std::vector<Value>>& weights_by_row, int pa, int pw);

  [[nodiscard]] const TileConfig& config() const noexcept { return cfg_; }

 private:
  TileConfig cfg_;
  std::vector<Sip> sips_;  // row-major
};

}  // namespace loom::arch
