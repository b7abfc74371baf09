// Runtime CPU feature detection shared by every SIMD-dispatched kernel
// (the dense-GEMM multiply-add, the synthetic streams' bulk read and the
// weight statistics). One probe, one policy: kernels ask for the
// process-wide SimdLevel instead of each carrying a private
// __builtin_cpu_supports call, so a single environment override can force
// every dispatch site down to a lower tier — the switch the per-tier CI
// legs and the cross-tier byte-identity tests stand on.
//
// Tier semantics: kAvx512 implies AVX-512 F + BW + DQ (the GEMM's 16-bit
// multiply-adds and shifts and the weight statistics' byte popcount need
// BW; the synthetic streams' 64-bit multiplies, vpmullq, need DQ; every
// AVX-512 BW part has DQ); kAvx2 implies AVX2. Each tier includes the ones
// below it, so "supports at least X" is an ordinary >= compare.
//
// Override (read once, first use — set it before the process starts):
//   LOOM_SIMD_LEVEL=scalar|avx2|avx512|native   cap the tier (scalar sends
//       every dispatch site down the scalar path; avx512 and native never
//       raise above what the hardware has; unknown values throw
//       ConfigError)
#pragma once

namespace loom::common {

/// SIMD dispatch tiers, ordered: a kernel compiled for tier T may run
/// whenever simd_level() >= T.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  ///< AVX-512 F + BW + DQ
};

/// Human-readable tier name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

/// What the hardware supports, ignoring any environment override. Cached
/// after the first probe.
[[nodiscard]] SimdLevel hardware_simd_level() noexcept;

/// The value of an on/off environment variable `name`: unset (nullptr), ""
/// and "0" are off, "1" is on, and anything else throws ConfigError naming
/// the variable. LOOM_FUNCTIONAL_SCALAR parses through it.
[[nodiscard]] bool env_flag(const char* name, const char* value);

/// Pure policy: turn the override variable into a tier cap. `level` is the
/// raw value of LOOM_SIMD_LEVEL (nullptr = unset). Exposed so tests can
/// sweep the parse without mutating the process environment. Throws
/// ConfigError on an unrecognized level string.
[[nodiscard]] SimdLevel simd_cap_from_env(const char* level);

/// The effective dispatch tier: min(hardware, environment cap). Read once
/// and cached — the environment must be set before first use (ctest sets it
/// per test process, which is the intended granularity).
[[nodiscard]] SimdLevel simd_level();

/// Convenience predicates against the effective tier.
[[nodiscard]] bool have_avx2();
[[nodiscard]] bool have_avx512();

}  // namespace loom::common
