#include "common/cpuid.hpp"

#include <cstdlib>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace loom::common {

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

SimdLevel hardware_simd_level() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const SimdLevel probed = [] {
    if (__builtin_cpu_supports("avx512f") != 0 &&
        __builtin_cpu_supports("avx512bw") != 0 &&
        __builtin_cpu_supports("avx512dq") != 0) {
      return SimdLevel::kAvx512;
    }
    if (__builtin_cpu_supports("avx2") != 0) return SimdLevel::kAvx2;
    return SimdLevel::kScalar;
  }();
  return probed;
#else
  return SimdLevel::kScalar;
#endif
}

bool env_flag(const char* name, const char* value) {
  const std::string_view v = value != nullptr ? value : "";
  if (v.empty() || v == "0") return false;
  if (v == "1") return true;
  throw ConfigError("invalid " + std::string(name) + ": " + std::string(v) +
                    " (want 0 or 1)");
}

SimdLevel simd_cap_from_env(const char* level) {
  if (level == nullptr || level[0] == '\0') return SimdLevel::kAvx512;
  const std::string_view v(level);
  if (v == "scalar") return SimdLevel::kScalar;
  if (v == "avx2") return SimdLevel::kAvx2;
  if (v == "avx512" || v == "native") return SimdLevel::kAvx512;
  throw ConfigError("unknown LOOM_SIMD_LEVEL: " + std::string(v) +
                    " (want scalar, avx2, avx512 or native)");
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

}  // namespace loom::common
