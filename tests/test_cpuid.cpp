// CPU feature detection and SIMD tier override parsing (common/cpuid).
// simd_cap_from_env and simd_level_from are pure — the env-var strings and
// the probed features come in as arguments — so the parsing table and the
// tier policy are testable without mutating the process environment or
// making the AMX permission syscall (simd_level() itself is cached at first
// use and deliberately not poked).
#include <gtest/gtest.h>

#include <string>

#include "common/cpuid.hpp"
#include "common/error.hpp"

namespace loom::common {
namespace {

TEST(Cpuid, LevelNamesAreStable) {
  // Persisted in autotune cache keys — renaming invalidates caches.
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx512), "avx512");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAmx), "amx");
}

TEST(Cpuid, UnsetEnvLeavesHardwareUncapped) {
  EXPECT_EQ(simd_cap_from_env(nullptr), SimdLevel::kAmx);
  EXPECT_EQ(simd_cap_from_env(""), SimdLevel::kAmx);
}

TEST(Cpuid, LevelStringsParse) {
  EXPECT_EQ(simd_cap_from_env("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(simd_cap_from_env("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(simd_cap_from_env("avx512"), SimdLevel::kAvx512);
  EXPECT_EQ(simd_cap_from_env("amx"), SimdLevel::kAmx);
  EXPECT_EQ(simd_cap_from_env("native"), SimdLevel::kAmx);
  // avx512 now caps below the top tier: it keeps the int16 conv kernel.
  EXPECT_LT(simd_cap_from_env("avx512"), simd_cap_from_env("native"));
}

TEST(Cpuid, JunkLevelIsTypedError) {
  EXPECT_THROW((void)simd_cap_from_env("sse9"), ConfigError);
  EXPECT_THROW((void)simd_cap_from_env("AVX2"), ConfigError);
  EXPECT_THROW((void)simd_cap_from_env("AMX"), ConfigError);
}

TEST(Cpuid, ErrorTextListsEveryLevel) {
  try {
    (void)simd_cap_from_env("sse9");
    FAIL() << "no ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    for (const char* name : {"scalar", "avx2", "avx512", "amx", "native"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name << " in " << what;
    }
  }
}

TEST(Cpuid, AmxTierNeedsInstructionsStateAndPermission) {
  const CpuFeatures all{.avx2 = true,
                        .avx512 = true,
                        .amx = true,
                        .tile_state = true,
                        .tile_permitted = true};
  EXPECT_EQ(simd_level_from(all), SimdLevel::kAmx);
  // Any one AMX condition missing leaves the AVX-512 tier.
  CpuFeatures refused = all;
  refused.tile_permitted = false;  // arch_prctl refused
  EXPECT_EQ(simd_level_from(refused), SimdLevel::kAvx512);
  CpuFeatures no_state = all;
  no_state.tile_state = false;  // XCR0 bits 17/18 clear
  EXPECT_EQ(simd_level_from(no_state), SimdLevel::kAvx512);
  CpuFeatures no_insn = all;
  no_insn.amx = false;
  EXPECT_EQ(simd_level_from(no_insn), SimdLevel::kAvx512);
  // The lower tiers.
  EXPECT_EQ(simd_level_from({.avx2 = true}), SimdLevel::kAvx2);
  EXPECT_EQ(simd_level_from({}), SimdLevel::kScalar);
}

TEST(Cpuid, EffectiveLevelNeverExceedsHardware) {
  EXPECT_LE(simd_level(), hardware_simd_level());
  EXPECT_EQ(have_avx2(), simd_level() >= SimdLevel::kAvx2);
  EXPECT_EQ(have_avx512(), simd_level() >= SimdLevel::kAvx512);
  EXPECT_EQ(have_amx(), simd_level() >= SimdLevel::kAmx);
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
