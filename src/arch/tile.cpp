#include "arch/tile.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace loom::arch {

SipTile::SipTile(TileConfig cfg) : cfg_(cfg) {
  LOOM_EXPECTS(cfg.rows >= 1 && cfg.cols >= 1 && cfg.lanes >= 1);
  const SipConfig sip_cfg{cfg.lanes, cfg.act_signed, /*weight_signed=*/true};
  sips_.assign(static_cast<std::size_t>(cfg.rows) * cfg.cols, Sip(sip_cfg));
}

SipTile::BlockResult SipTile::conv_block(
    const std::vector<std::vector<Value>>& acts_by_col,
    const std::vector<std::vector<Value>>& weights_by_row, int pa, int pw) {
  LOOM_EXPECTS(static_cast<int>(acts_by_col.size()) <= cfg_.cols);
  LOOM_EXPECTS(static_cast<int>(weights_by_row.size()) <= cfg_.rows);
  LOOM_EXPECTS(pa >= 1 && pa <= kBasePrecision);
  LOOM_EXPECTS(pw >= 1 && pw <= kBasePrecision);

  const int used_cols = static_cast<int>(acts_by_col.size());
  const int used_rows = static_cast<int>(weights_by_row.size());
  std::size_t length = 0;
  for (const auto& v : acts_by_col) length = std::max(length, v.size());
  for (const auto& v : weights_by_row) LOOM_EXPECTS(v.size() == length || v.empty());

  BlockResult result;
  result.outputs.assign(static_cast<std::size_t>(cfg_.rows) * cfg_.cols, 0);
  for (auto& sip : sips_) sip.begin_output();

  const std::int64_t chunks = ceil_div(static_cast<std::int64_t>(length), cfg_.lanes);
  for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
    const std::size_t base = static_cast<std::size_t>(chunk) * cfg_.lanes;
    // One chunk costs pa * pw cycles on every active SIP; all SIPs in the
    // grid run in lock step so wall-clock cycles accrue once per chunk.
    for (int wb = 0; wb < pw; ++wb) {
      // Each row loads its own weight bits (shared across the row's SIPs
      // over the common weight bus).
      for (int r = 0; r < used_rows; ++r) {
        std::uint32_t wr = 0;
        for (int lane = 0; lane < cfg_.lanes; ++lane) {
          const std::size_t i = base + static_cast<std::size_t>(lane);
          const Value w = i < weights_by_row[static_cast<std::size_t>(r)].size()
                              ? weights_by_row[static_cast<std::size_t>(r)][i]
                              : 0;
          wr |= static_cast<std::uint32_t>(bit_of(w, wb)) << lane;
        }
        for (int c = 0; c < used_cols; ++c) {
          sips_[static_cast<std::size_t>(r) * cfg_.cols + c].begin_weight_pass(
              wr, wb, wb == pw - 1);
        }
      }
      for (int ab = pa - 1; ab >= 0; --ab) {
        for (int c = 0; c < used_cols; ++c) {
          std::uint32_t bits = 0;
          for (int lane = 0; lane < cfg_.lanes; ++lane) {
            const std::size_t i = base + static_cast<std::size_t>(lane);
            const Value a = i < acts_by_col[static_cast<std::size_t>(c)].size()
                                ? acts_by_col[static_cast<std::size_t>(c)][i]
                                : 0;
            bits |= static_cast<std::uint32_t>(bit_of(a, ab)) << lane;
          }
          for (int r = 0; r < used_rows; ++r) {
            sips_[static_cast<std::size_t>(r) * cfg_.cols + c].cycle(
                bits, ab == pa - 1);
          }
        }
        ++result.cycles;
      }
      for (int r = 0; r < used_rows; ++r) {
        for (int c = 0; c < used_cols; ++c) {
          sips_[static_cast<std::size_t>(r) * cfg_.cols + c].end_weight_pass();
        }
      }
    }
  }

  for (int r = 0; r < used_rows; ++r) {
    for (int c = 0; c < used_cols; ++c) {
      const std::size_t i = static_cast<std::size_t>(r) * cfg_.cols + c;
      result.outputs[i] = sips_[i].output();
    }
  }
  return result;
}

}  // namespace loom::arch
