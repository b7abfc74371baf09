// A test-only second tunable kernel. The registry ships one tunable backend
// ("gemm"), but the autotuner's exploration, argmin, memoization and
// warm-cache paths only do anything with two or more candidates. Registering
// a mirror — the built-in gemm kernel under another name — gives those
// tests a second candidate that computes the same bytes, so the
// registry-wide differential sweeps accept it like any other backend.
#pragma once

#include <memory>
#include <string>

#include "sim/backend.hpp"

namespace loom::sim {

inline constexpr const char* kMirrorBackend = "gemm-mirror";

/// Register (or re-register) `kMirrorBackend` as a tunable copy of "gemm".
inline void register_gemm_mirror() {
  BackendRegistry::instance().register_backend(BackendInfo{
      .name = kMirrorBackend,
      .tunable = true,
      .supports = supports,
      .make = [](const GridOptions& grid) -> std::unique_ptr<FunctionalBackend> {
        return BackendRegistry::instance().find("gemm")->make(grid);
      }});
}

}  // namespace loom::sim
