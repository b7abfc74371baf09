// Persistent autotune cache: a versioned, checksummed on-disk image of the
// BackendAutotuner's decided cells. save_autotune_cache writes the process
// autotuner's cells; load_autotune_cache installs a saved image, so a
// process that loads one records no exploration for the cells it covers.
//
// The file is a common/section_file.hpp image (magic "LOOMTUNE"), whose
// framing, exact-EOF rule and crash-safe tmp+rename save are documented
// there. Its sections, in order: kKey, kCells.
//
// The kKey section pins what the measurements meant: the effective SIMD
// dispatch tier (common/cpuid) and an FNV hash of the tunable kernel roster
// (the one name "gemm"). A cache written on a different CPU tier, under a
// different SIMD override, or against a different roster decodes cleanly but
// fails the key check — stale and foreign caches are rejected as a typed
// AutotuneCacheError (common/error.hpp), never silently trusted, and a
// rejected load leaves the in-memory autotuner untouched. Same story for
// truncation, bit flips and version skew (fuzz-pinned by
// tests/test_autotune_cache.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/backend.hpp"

namespace loom::sim {

/// Format version accepted by this build; every other value is rejected
/// with AutotuneCacheError (version skew is a rejection, not a migration).
inline constexpr std::uint32_t kAutotuneCacheVersion = 1;

/// What a set of measurements is keyed by, beyond the per-cell TuneKey:
/// the CPU dispatch tier the kernels actually ran at, and the tunable
/// kernel roster the samples cover.
struct AutotuneCacheKey {
  std::string simd;                    ///< common::simd_level_name value
  std::uint64_t backend_set_hash = 0;  ///< FNV over the tunable roster

  friend bool operator==(const AutotuneCacheKey&,
                         const AutotuneCacheKey&) = default;
};

/// The key material of this process: effective SIMD tier + the hash of the
/// roster "gemm\n".
[[nodiscard]] AutotuneCacheKey current_autotune_cache_key();

/// Serialize decided cells to the cache byte image (exposed so the
/// corruption tests can flip bits / truncate without touching disk).
/// Undecided cells, and cells whose winner has no sample, are skipped.
[[nodiscard]] std::vector<std::uint8_t> encode_autotune_cache(
    std::span<const BackendAutotuner::Decision> decisions,
    const AutotuneCacheKey& key);

/// Decode a cache image and validate it against `expect` (normally
/// current_autotune_cache_key()). Throws AutotuneCacheError on any
/// malformed input or key mismatch.
[[nodiscard]] std::vector<BackendAutotuner::Decision> decode_autotune_cache(
    std::span<const std::uint8_t> bytes, const AutotuneCacheKey& expect);

/// Write the process autotuner's decided cells to `path` atomically
/// (tmp file + rename). Throws AutotuneCacheError on I/O failure.
void save_autotune_cache(const std::string& path);

/// Read, validate and install a cache into the process autotuner. Returns
/// the number of cells installed (already-known keys install nothing).
/// Throws AutotuneCacheError on a missing file, any corruption, or a key
/// mismatch — without touching autotuner state.
std::size_t load_autotune_cache(const std::string& path);

}  // namespace loom::sim
