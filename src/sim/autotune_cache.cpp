#include "sim/autotune_cache.hpp"

#include "common/bitops.hpp"
#include "common/cpuid.hpp"
#include "common/error.hpp"
#include "common/section_file.hpp"

namespace loom::sim {

namespace {

using section_file::ByteReader;
using section_file::ByteWriter;

// Section ids, in the exact order they must appear in the file.
enum SectionId : std::uint32_t {
  kKey = 1,
  kCells = 2,
};
constexpr std::uint32_t kSectionOrder[] = {kKey, kCells};

constexpr section_file::Format kFormat{
    .label = "autotune cache",
    .magic = "LOOMTUNE",
    .version = kAutotuneCacheVersion,
    .sections = kSectionOrder,
    .max_string = 1u << 10,
    .raise = section_file::throw_as<AutotuneCacheError>,
};

// Decode-side sanity bounds: far above any real tuning run, tight enough
// that a corrupted count field cannot drive a pathological allocation.
constexpr std::uint64_t kMaxCells = 1u << 20;
constexpr std::uint64_t kMaxSamples = 256;

// ---- Section payloads ------------------------------------------------------

void encode_key(ByteWriter& w, const AutotuneCacheKey& key) {
  w.str(key.simd);
  w.u64(key.backend_set_hash);
}

[[nodiscard]] AutotuneCacheKey decode_key(ByteReader& r) {
  AutotuneCacheKey key;
  key.simd = r.str("simd tier");
  key.backend_set_hash = r.u64("backend set hash");
  return key;
}

/// Persist-worthy = decided (winner known) and internally consistent
/// (winner backed by a sample) — exactly what install() will accept back.
[[nodiscard]] bool persistable(const BackendAutotuner::Decision& d) {
  if (d.winner.empty() || d.samples.empty()) return false;
  for (const auto& s : d.samples) {
    if (s.backend == d.winner) return true;
  }
  return false;
}

void encode_cell(ByteWriter& w, const BackendAutotuner::Decision& d) {
  const TuneKey& k = d.key;
  w.i32(k.kind);
  w.i64(k.in_c);
  w.i64(k.in_h);
  w.i64(k.in_w);
  w.i64(k.out_c);
  w.i32(k.kernel_h);
  w.i32(k.kernel_w);
  w.i32(k.stride);
  w.i32(k.pad);
  w.i32(k.groups);
  w.i32(k.pa);
  w.i32(k.pw);
  w.u8(k.act_signed ? 1 : 0);
  w.u8(k.dynamic ? 1 : 0);
  w.i32(k.batch);
  w.i32(k.rows);
  w.i32(k.cols);
  w.i32(k.lanes);
  w.i32(k.jobs);
  w.str(d.winner);
  w.u64(d.samples.size());
  for (const auto& s : d.samples) {
    w.str(s.backend);
    w.u64(s.ns);
  }
}

[[nodiscard]] BackendAutotuner::Decision decode_cell(ByteReader& r) {
  BackendAutotuner::Decision d;
  TuneKey& k = d.key;
  k.kind = r.i32_in("cell kind", 0, 1);
  k.in_c = r.i64("cell in_c");
  k.in_h = r.i64("cell in_h");
  k.in_w = r.i64("cell in_w");
  k.out_c = r.i64("cell out_c");
  k.kernel_h = r.i32("cell kernel_h");
  k.kernel_w = r.i32("cell kernel_w");
  k.stride = r.i32("cell stride");
  k.pad = r.i32("cell pad");
  k.groups = r.i32("cell groups");
  k.pa = r.i32("cell pa");
  k.pw = r.i32("cell pw");
  k.act_signed = r.u8("cell act_signed") != 0;
  k.dynamic = r.u8("cell dynamic") != 0;
  k.batch = r.i32("cell batch");
  k.rows = r.i32("cell rows");
  k.cols = r.i32("cell cols");
  k.lanes = r.i32("cell lanes");
  k.jobs = r.i32("cell jobs");
  d.winner = r.str("cell winner");
  const std::uint64_t n = r.u64("cell sample count");
  if (n == 0 || n > kMaxSamples) {
    r.fail("cell sample count out of range: " + std::to_string(n));
  }
  d.samples.reserve(static_cast<std::size_t>(n));
  bool winner_sampled = false;
  for (std::uint64_t i = 0; i < n; ++i) {
    BackendAutotuner::Sample s;
    s.backend = r.str("sample backend");
    s.ns = r.u64("sample ns");
    winner_sampled = winner_sampled || s.backend == d.winner;
    d.samples.push_back(std::move(s));
  }
  if (d.winner.empty() || !winner_sampled) {
    r.fail("cell winner '" + d.winner +
           "' is not backed by a sample (invalid or tampered cell)");
  }
  return d;
}

}  // namespace

AutotuneCacheKey current_autotune_cache_key() {
  AutotuneCacheKey key;
  key.simd = common::simd_level_name(common::simd_level());
  // The tunable roster, each name ended by '\n': gemm is the one kernel
  // "auto" picks from.
  key.backend_set_hash = fnv1a64("gemm\n");
  return key;
}

std::vector<std::uint8_t> encode_autotune_cache(
    std::span<const BackendAutotuner::Decision> decisions,
    const AutotuneCacheKey& key) {
  return section_file::encode_sections(
      kFormat, [&](std::uint32_t id, ByteWriter& w) {
        switch (id) {
          case kKey:
            encode_key(w, key);
            break;
          case kCells: {
            std::uint64_t count = 0;
            for (const auto& d : decisions) count += persistable(d) ? 1 : 0;
            w.u64(count);
            for (const auto& d : decisions) {
              if (persistable(d)) encode_cell(w, d);
            }
            break;
          }
        }
      });
}

std::vector<BackendAutotuner::Decision> decode_autotune_cache(
    std::span<const std::uint8_t> bytes, const AutotuneCacheKey& expect) {
  std::vector<BackendAutotuner::Decision> decisions;
  section_file::decode_sections(
      kFormat, bytes, [&](std::uint32_t id, ByteReader& r) {
        switch (id) {
          case kKey: {
            const AutotuneCacheKey key = decode_key(r);
            if (!(key == expect)) {
              r.fail("key mismatch: file tuned for simd='" + key.simd +
                     "' backend-set=" + std::to_string(key.backend_set_hash) +
                     ", this process is simd='" + expect.simd +
                     "' backend-set=" +
                     std::to_string(expect.backend_set_hash) +
                     " (stale or foreign cache)");
            }
            break;
          }
          case kCells: {
            const std::uint64_t count = r.count("cell count", kMaxCells);
            decisions.reserve(static_cast<std::size_t>(count));
            for (std::uint64_t i = 0; i < count; ++i) {
              decisions.push_back(decode_cell(r));
            }
            break;
          }
        }
      });
  return decisions;
}

void save_autotune_cache(const std::string& path) {
  section_file::save_file(
      kFormat, path,
      encode_autotune_cache(BackendAutotuner::instance().decisions(),
                            current_autotune_cache_key()));
}

std::size_t load_autotune_cache(const std::string& path) {
  // Decode fully (and throw) BEFORE touching autotuner state: a rejected
  // cache must never half-install.
  const std::vector<BackendAutotuner::Decision> decisions =
      decode_autotune_cache(section_file::read_file(kFormat, path),
                            current_autotune_cache_key());
  return BackendAutotuner::instance().install(decisions);
}

}  // namespace loom::sim
