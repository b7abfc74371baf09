// Crash-safe binary model snapshots: a versioned, section-checksummed
// interchange format for registry models, so shards load a profiled
// network + materialized weights + calibration spec from disk instead of
// rebuilding (weight synthesis + calibration bisection) per process.
//
// The file is a common/section_file.hpp image (magic "LOOMSNAP"), whose
// framing, exact-EOF rule and tmp+rename save are documented there. Its
// sections, in order: kName, kNetwork, kProfile, kInputSpec, kWeights.
// Beyond the shared framing checks, decode bounds every count and tensor
// dimension, and rejects (sim::weights_error) a network whose layers do not
// chain and weights that do not fit their layers. Every malformed input
// fails with a typed SnapshotError (common/error.hpp), never UB; pinned by
// fuzz-style corruption tests in tests/test_model_snapshot.cpp. Only the
// flat weight tensors are stored: the prepared conv planes are derived
// data, which decode builds against the decoded network once the checks
// pass, so ModelRegistry::add registers a loaded model as it is.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/fault_injector.hpp"
#include "serve/model_registry.hpp"

namespace loom::serve {

/// Format version accepted by this build. Bumped on any layout change;
/// decode rejects every other value with SnapshotError (version skew is a
/// corruption mode, not a best-effort migration).
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Serialize a model to the snapshot byte image (exposed so the corruption
/// tests can flip bits / truncate without touching disk).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Model& model);

/// Decode a snapshot image. Throws SnapshotError on any malformed input;
/// a successful decode round-trips byte-identically (network geometry,
/// precisions, weights, profile and calibration spec all exact, so outputs
/// of a loaded model match the original bit for bit).
[[nodiscard]] Model decode_snapshot(std::span<const std::uint8_t> bytes);

/// Write `model` to `path` atomically (tmp file + rename). Throws
/// SnapshotError on I/O failure.
void save_snapshot(const Model& model, const std::string& path);

/// Read and decode a snapshot from disk. Short reads, truncation and every
/// decode failure throw SnapshotError. When `injector` is non-null its
/// snapshot_corrupt site may flip one deterministic bit of the file image
/// before decoding (the corrupt-snapshot-on-load chaos fault) — which must
/// then surface as SnapshotError like any real corruption.
[[nodiscard]] std::shared_ptr<const Model> load_snapshot(
    const std::string& path, FaultInjector* injector = nullptr);

}  // namespace loom::serve
