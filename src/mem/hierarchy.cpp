#include "mem/hierarchy.hpp"

#include "common/error.hpp"

namespace loom::mem {

MemorySystemConfig default_memory_config(int equiv_macs, bool bit_packed) {
  LOOM_EXPECTS(equiv_macs > 0);
  MemorySystemConfig cfg;
  // §4.5: DPNN needs 2 MB for activations; Loom's bit-packed storage
  // halves that. Weight memory scales with compute: 16 KB per equivalent
  // MAC/cycle (512 KB at E=32 ... 8 MB at E=512, Figure 5's labels).
  cfg.am_bytes = bit_packed ? (1 << 20) : (2 << 20);
  cfg.wm_bytes = static_cast<std::int64_t>(equiv_macs) * 16 * 1024;
  return cfg;
}

}  // namespace loom::mem
