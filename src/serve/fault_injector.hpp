// Deterministic, seed-replayable fault injection for the serving stack.
//
// The injector is compiled in always and disabled by default (every
// probability in FaultPlan is zero); enabling it costs one counter-based
// RNG draw per decision site. Each site owns an independent draw stream
// (CounterRng stream = site id) indexed by an atomic per-site counter, so
// for a fixed seed the k-th decision at a site is a pure function of
// (seed, site, k): a replayed run with the same number of visits to each
// site injects the same multiset of faults regardless of thread
// interleaving — which is what makes overload stress tests replayable via
// LOOM_SERVE_FAULT_SEED and the shard-router chaos tests via
// LOOM_ROUTER_FAULT_SEED.
//
// Sites wired into InferenceServer:
//   engine_failure   -- thrown as TransientEngineError before each primary
//                       engine attempt (first try + retries; never before
//                       the scalar fallback)
//   fallback_failure -- same, but for the scalar-oracle fallback attempt,
//                       driving the fail-futures-individually path
//   batcher_delay    -- worker sleeps `batcher_delay` after popping a batch
//   queue_spike      -- admission control sees `queue_spike_depth` phantom
//                       pending requests, provoking watermark sheds
//
// Shard-scoped sites wired into ShardRouter (drawn once per routed request
// at fixed points, so the visit count — and with it the fault multiset —
// is a pure function of the request count, never of thread interleaving):
//   shard_kill       -- the request's rendezvous-primary shard is stopped
//                       (drain-then-join) and must re-enter through the
//                       probation circuit breaker
//   shard_stall      -- the primary shard refuses service for `shard_stall`
//                       (attempts against it burn their budget and fail
//                       over), exercising timeout-driven failover
//   probe_failure    -- a health probe is forced to fail without reaching
//                       the shard, driving the breaker towards ejection
//   snapshot_corrupt -- load_snapshot flips one deterministic bit of the
//                       file image before decoding; the checksummed format
//                       must reject it with SnapshotError, never UB
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/rng.hpp"

namespace loom::serve {

/// Fault-injection configuration. All probabilities in [0, 1]; all zero
/// (the default) disables injection entirely.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Probability a primary engine run (initial attempt or retry) throws
  /// TransientEngineError before doing any work.
  double engine_failure_prob = 0.0;
  /// Probability the scalar-oracle fallback attempt throws too (exercises
  /// per-future failure without crashing the worker).
  double fallback_failure_prob = 0.0;
  /// Probability a popped batch is delayed by `batcher_delay` before
  /// running (simulates a slow worker; builds queue pressure).
  double batcher_delay_prob = 0.0;
  std::chrono::microseconds batcher_delay{0};
  /// Probability one admission decision observes `queue_spike_depth` extra
  /// phantom pending requests (simulates a pressure spike; provokes sheds).
  double queue_spike_prob = 0.0;
  std::size_t queue_spike_depth = 0;

  // ---- Shard-scoped sites (consumed by ShardRouter) -----------------------
  /// Probability a routed request kills its rendezvous-primary shard before
  /// the first attempt (the shard's server stops; recovery goes through the
  /// probation circuit breaker).
  double shard_kill_prob = 0.0;
  /// Probability a routed request stalls its rendezvous-primary shard for
  /// `shard_stall` — attempts against a stalled shard fail over.
  double shard_stall_prob = 0.0;
  std::chrono::microseconds shard_stall{0};
  /// Probability a router health probe fails without reaching the shard.
  double probe_failure_prob = 0.0;
  /// Probability load_snapshot flips one bit of the file image (must be
  /// rejected with a typed SnapshotError).
  double snapshot_corrupt_prob = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return engine_failure_prob > 0.0 || fallback_failure_prob > 0.0 ||
           batcher_delay_prob > 0.0 || queue_spike_prob > 0.0 ||
           shard_kill_prob > 0.0 || shard_stall_prob > 0.0 ||
           probe_failure_prob > 0.0 || snapshot_corrupt_prob > 0.0;
  }
};

class FaultInjector {
 public:
  FaultInjector() : FaultInjector(FaultPlan{}) {}
  explicit FaultInjector(const FaultPlan& plan);

  [[nodiscard]] bool enabled() const noexcept { return plan_.enabled(); }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  // ---- Decision sites (thread-safe; each draw advances its stream) --------
  [[nodiscard]] bool should_fail_engine() noexcept;
  [[nodiscard]] bool should_fail_fallback() noexcept;
  [[nodiscard]] bool should_delay_batcher() noexcept;
  /// Phantom pending requests this admission decision should add (0 or
  /// plan().queue_spike_depth).
  [[nodiscard]] std::size_t queue_spike() noexcept;
  [[nodiscard]] bool should_kill_shard() noexcept;
  [[nodiscard]] bool should_stall_shard() noexcept;
  [[nodiscard]] bool should_fail_probe() noexcept;
  /// When the snapshot-corruption site fires, the (deterministic) bit index
  /// in [0, size_bits) that the loader must flip; nullopt otherwise.
  [[nodiscard]] std::optional<std::uint64_t> corrupt_snapshot_bit(
      std::uint64_t size_bits) noexcept;

  // ---- Injected-fault observability (for tests and stats printing) --------
  [[nodiscard]] std::uint64_t engine_failures_injected() const noexcept {
    return fired(kEngine);
  }
  [[nodiscard]] std::uint64_t fallback_failures_injected() const noexcept {
    return fired(kFallback);
  }
  [[nodiscard]] std::uint64_t batcher_delays_injected() const noexcept {
    return fired(kDelay);
  }
  [[nodiscard]] std::uint64_t queue_spikes_injected() const noexcept {
    return fired(kSpike);
  }
  [[nodiscard]] std::uint64_t shard_kills_injected() const noexcept {
    return fired(kShardKill);
  }
  [[nodiscard]] std::uint64_t shard_stalls_injected() const noexcept {
    return fired(kShardStall);
  }
  [[nodiscard]] std::uint64_t probe_failures_injected() const noexcept {
    return fired(kProbeFail);
  }
  [[nodiscard]] std::uint64_t snapshot_corruptions_injected() const noexcept {
    return fired(kSnapshotCorrupt);
  }

 private:
  enum Site : std::size_t {
    kEngine = 0,
    kFallback,
    kDelay,
    kSpike,
    kShardKill,
    kShardStall,
    kProbeFail,
    kSnapshotCorrupt,
    kSites
  };

  [[nodiscard]] bool draw(Site site, double prob) noexcept;
  [[nodiscard]] std::uint64_t fired(Site site) const noexcept {
    return fired_[site].load(std::memory_order_relaxed);
  }

  FaultPlan plan_;
  CounterRng rngs_[kSites];
  std::atomic<std::uint64_t> next_[kSites];
  std::atomic<std::uint64_t> fired_[kSites];
};

}  // namespace loom::serve
