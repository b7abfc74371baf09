// Runtime CPU feature detection shared by every SIMD-dispatched kernel
// (the dense-GEMM multiply-add, the synthetic streams' bulk read and the
// weight statistics). One probe, one policy: kernels ask for the
// process-wide SimdLevel instead of each carrying a private
// __builtin_cpu_supports call, so a single environment override can force
// every dispatch site down to a lower tier — the switch the per-tier CI
// legs and the cross-tier byte-identity tests stand on.
//
// Tier semantics: kAmx implies kAvx512 plus AMX-TILE and AMX-INT8 usable
// by this process — CPUID reports both, the OS enables the tile state in
// XCR0 (bits 17 and 18), and Linux granted the XTILEDATA permission
// (arch_prctl ARCH_REQ_XCOMP_PERM), which the probe requests once; the
// conv GEMM's byte-plane TDPBSUD kernel needs all three. kAvx512 implies
// AVX-512 F + BW + DQ (the GEMM's 16-bit multiply-adds and shifts and the
// weight statistics' byte popcount need BW; the synthetic streams' 64-bit
// multiplies, vpmullq, need DQ; every AVX-512 BW part has DQ); kAvx2
// implies AVX2. Each tier includes the ones below it, so "supports at
// least X" is an ordinary >= compare.
//
// Override (read once, first use — set it before the process starts):
//   LOOM_SIMD_LEVEL=scalar|avx2|avx512|amx|native   cap the tier (scalar
//       sends every dispatch site down the scalar path; avx512 keeps the
//       conv GEMM on its int16 kernel; amx and native never raise above
//       what the hardware has; unknown values throw ConfigError)
#pragma once

namespace loom::common {

/// SIMD dispatch tiers, ordered: a kernel compiled for tier T may run
/// whenever simd_level() >= T.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  ///< AVX-512 F + BW + DQ
  kAmx = 3,     ///< kAvx512 + AMX-TILE + AMX-INT8, enabled and permitted
};

/// Human-readable tier name ("scalar", "avx2", "avx512", "amx").
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

/// What the probe found. The AMX fields are separate because each can fail
/// on its own: a CPU with the instructions, an OS that does not enable the
/// tile state, or a kernel that refuses the permission request.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512 = false;          ///< F + BW + DQ
  bool amx = false;             ///< CPUID: AMX-TILE and AMX-INT8
  bool tile_state = false;      ///< XCR0 bits 17 (TILECFG) and 18 (TILEDATA)
  bool tile_permitted = false;  ///< arch_prctl(ARCH_REQ_XCOMP_PERM) returned 0
};

/// Pure policy: the highest tier `features` supports. Exposed so tests can
/// check the AMX conditions without a syscall.
[[nodiscard]] SimdLevel simd_level_from(const CpuFeatures& features) noexcept;

/// What the hardware supports, ignoring any environment override. Cached
/// after the first probe (which makes the AMX permission request).
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
[[nodiscard]] bool have_amx();

}  // namespace loom::common
