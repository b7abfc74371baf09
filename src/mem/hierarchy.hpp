// The memory sizing a simulator runs against: the on-chip AM/WM (eDRAM)
// capacities and one off-chip LPDDR4 channel. The default sizing follows
// §4.5: DPNN needs 2 MB of activation memory; Loom, storing bit-packed
// activations, needs 1 MB; weight memory scales with the configuration
// (512 KB at E=32 up to 8 MB at E=512).
#pragma once

#include <cstdint>

#include "mem/dram.hpp"

namespace loom::mem {

struct MemorySystemConfig {
  std::int64_t am_bytes = 2 << 20;  ///< activation memory capacity
  std::int64_t wm_bytes = 2 << 20;  ///< weight memory capacity
  DramConfig dram;
};

/// Default sizing for an architecture at equivalent compute E.
/// `bit_packed` selects Loom's packed activation storage (1 MB AM).
[[nodiscard]] MemorySystemConfig default_memory_config(int equiv_macs,
                                                       bool bit_packed);

}  // namespace loom::mem
