// CPU feature detection and SIMD tier override parsing (common/cpuid).
// simd_cap_from_env is pure — the env-var strings come in as arguments — so
// the parsing table is testable without mutating the process environment
// (simd_level() itself is cached at first use and deliberately not poked).
#include <gtest/gtest.h>

#include "common/cpuid.hpp"
#include "common/error.hpp"

namespace loom::common {
namespace {

TEST(Cpuid, LevelNamesAreStable) {
  // Persisted in autotune cache keys — renaming invalidates caches.
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx512), "avx512");
}

TEST(Cpuid, UnsetEnvLeavesHardwareUncapped) {
  EXPECT_EQ(simd_cap_from_env(nullptr), SimdLevel::kAvx512);
  EXPECT_EQ(simd_cap_from_env(""), SimdLevel::kAvx512);
}

TEST(Cpuid, LevelStringsParse) {
  EXPECT_EQ(simd_cap_from_env("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(simd_cap_from_env("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(simd_cap_from_env("avx512"), SimdLevel::kAvx512);
  EXPECT_EQ(simd_cap_from_env("native"), SimdLevel::kAvx512);
}

TEST(Cpuid, JunkLevelIsTypedError) {
  EXPECT_THROW((void)simd_cap_from_env("sse9"), ConfigError);
  EXPECT_THROW((void)simd_cap_from_env("AVX2"), ConfigError);
}

TEST(Cpuid, EffectiveLevelNeverExceedsHardware) {
  EXPECT_LE(simd_level(), hardware_simd_level());
  EXPECT_EQ(have_avx2(), simd_level() >= SimdLevel::kAvx2);
  EXPECT_EQ(have_avx512(), simd_level() >= SimdLevel::kAvx512);
}

TEST(Cpuid, Avx512TierHasEveryExtensionItsKernelsUse) {
  // F + BW for the GEMM and the weight-statistics popcount, DQ for the
  // synthetic streams' vpmullq.
#if defined(__x86_64__) || defined(__i386__)
  if (hardware_simd_level() >= SimdLevel::kAvx512) {
    EXPECT_NE(__builtin_cpu_supports("avx512f"), 0);
    EXPECT_NE(__builtin_cpu_supports("avx512bw"), 0);
    EXPECT_NE(__builtin_cpu_supports("avx512dq"), 0);
  }
#else
  EXPECT_EQ(hardware_simd_level(), SimdLevel::kScalar);
#endif
}

}  // namespace
}  // namespace loom::common
