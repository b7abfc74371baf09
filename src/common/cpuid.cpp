#include "common/cpuid.hpp"

#include <cstdlib>
#include <string>
#include <string_view>

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if defined(__linux__) && defined(__x86_64__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace loom::common {

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAmx:
      return "amx";
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

SimdLevel simd_level_from(const CpuFeatures& f) noexcept {
  if (f.avx512 && f.amx && f.tile_state && f.tile_permitted) {
    return SimdLevel::kAmx;
  }
  if (f.avx512) return SimdLevel::kAvx512;
  if (f.avx2) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
}

namespace {

#if defined(__x86_64__) || defined(__i386__)
/// CPUID.(7,0):EDX bits 24 (AMX-TILE) and 25 (AMX-INT8).
bool cpu_has_amx_int8() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  constexpr unsigned kTileInt8 = (1u << 24) | (1u << 25);
  return (d & kTileInt8) == kTileInt8;
}

/// XCR0 bits 17 (XTILECFG) and 18 (XTILEDATA): the OS saves tile state.
/// XGETBV is legal only when CPUID.1:ECX.OSXSAVE (bit 27) is set.
bool os_enables_tile_state() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & (1u << 27)) == 0) {
    return false;
  }
  unsigned lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  constexpr unsigned kTileBits = (1u << 17) | (1u << 18);
  return (lo & kTileBits) == kTileBits;
}

/// Linux hands out the 8 KB tile data state per process on request; the
/// grant covers every thread of the process.
bool request_tile_permission() {
#if defined(__linux__) && defined(__x86_64__)
  constexpr long kArchReqXcompPerm = 0x1023;
  constexpr long kXfeatureXtiledata = 18;
  return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
#else
  return false;
#endif
}
#endif

CpuFeatures probe_cpu() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512 = __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
  f.amx = cpu_has_amx_int8();
  f.tile_state = f.amx && os_enables_tile_state();
  // Ask only where the tiles could run: the grant enlarges every signal
  // frame of the process.
  f.tile_permitted = f.avx512 && f.tile_state && request_tile_permission();
#endif
  return f;
}

}  // namespace

SimdLevel hardware_simd_level() noexcept {
  static const SimdLevel probed = simd_level_from(probe_cpu());
  return probed;
}

bool env_flag(const char* name, const char* value) {
  const std::string_view v = value != nullptr ? value : "";
  if (v.empty() || v == "0") return false;
  if (v == "1") return true;
  throw ConfigError("invalid " + std::string(name) + ": " + std::string(v) +
                    " (want 0 or 1)");
}

SimdLevel simd_cap_from_env(const char* level) {
  if (level == nullptr || level[0] == '\0') return SimdLevel::kAmx;
  const std::string_view v(level);
  if (v == "scalar") return SimdLevel::kScalar;
  if (v == "avx2") return SimdLevel::kAvx2;
  if (v == "avx512") return SimdLevel::kAvx512;
  if (v == "amx" || v == "native") return SimdLevel::kAmx;
  throw ConfigError("unknown LOOM_SIMD_LEVEL: " + std::string(v) +
                    " (want scalar, avx2, avx512, amx or native)");
}

SimdLevel simd_level() {
  static const SimdLevel effective = [] {
    const SimdLevel cap = simd_cap_from_env(std::getenv("LOOM_SIMD_LEVEL"));
    const SimdLevel hw = hardware_simd_level();
    return cap < hw ? cap : hw;
  }();
  return effective;
}

bool have_avx2() { return simd_level() >= SimdLevel::kAvx2; }

bool have_avx512() { return simd_level() >= SimdLevel::kAvx512; }

bool have_amx() { return simd_level() >= SimdLevel::kAmx; }

}  // namespace loom::common
