// Sharded fault-tolerant serving: a ShardRouter owns N InferenceServer
// shards and routes requests with rendezvous hashing, health-gated
// failover and per-tenant token-bucket quotas — the fleet-scale layer
// above the single-server overload machinery.
//
// Routing: every request ranks the shards by rendezvous (highest-random-
// weight) hashing on (model, tenant) — each key has a stable shard
// preference order, so cache/batching affinity survives shard failures
// (only keys whose primary died move, to their next-ranked shard) and
// recovers automatically when the shard returns.
//
// Health: each shard carries error-rate and latency EWMAs fed by real
// request outcomes and (optionally) a background prober that plays
// synthetic requests through the shard. The per-shard state machine is a
// circuit breaker:
//
//   kHealthy --3 consecutive failures, or error EWMA >= 0.9, or the shard
//             dies--> kEjected
//   kEjected --backoff expires--> kProbation (half-open: trial traffic)
//   kProbation --2 consecutive successes--> kHealthy
//   kProbation --any failure--> kEjected (backoff doubles, capped)
//
// The breaker hears an attempt's outcome only while the shard still runs
// the server the attempt went to (a per-shard generation, bumped by every
// kill and restart): work a killed server drains never judges the server
// that replaced it. The per-shard completed/failed counts take every
// outcome.
//
// Ejected shards take no traffic until their backoff expires. A *dead*
// shard (killed, or restart factory threw) is additionally marked not
// alive; when its backoff expires the router rebuilds it through the
// ShardFactory (which may load model snapshots — and may fail again under
// injected snapshot corruption, leaving it dead for another backoff).
//
// Failover: submit() walks the rendezvous ranking, skipping ineligible
// shards; a shed, timeout, injected stall or engine failure on one shard
// retries on the next-ranked eligible shard within the caller's deadline.
// Each attempt is one submission to one shard. If every shard is
// unavailable the router forces recovery (restarts the best-ranked dead
// shard ignoring backoff) rather than failing a request that still has
// budget — no-deadline traffic is never lost to transient faults. The
// router never touches outputs, so every successful result is
// byte-identical to a solo run_network.
//
// Quotas: per-tenant token buckets (rate + burst) gate admission before
// any shard is touched. Exhausted tenants get TenantQuotaError, accounted
// separately from overload sheds — after a drain,
//   submitted == completed + quota_rejected + shed + timed_out + failed
// holds in aggregate and per tenant.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "serve/fault_injector.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"

namespace loom::serve {

/// Circuit-breaker state of one shard (see the file comment for the
/// transition diagram).
enum class ShardHealth { kHealthy, kEjected, kProbation };

[[nodiscard]] const char* health_name(ShardHealth h) noexcept;

/// Token-bucket quota: sustained `rate_per_sec` with bursts up to `burst`.
/// A zero rate means unlimited (the bucket never rejects).
struct TenantQuota {
  double rate_per_sec = 0.0;
  double burst = 1.0;
};

/// Per-request routing options.
struct RouteOptions {
  std::string tenant = "default";
  Priority priority = Priority::kInteractive;
  /// Relative end-to-end deadline across all failover attempts (0 = none).
  /// An already-exhausted budget mid-failover stops retrying; the request
  /// resolves DeadlineExceededError and counts as timed_out.
  std::chrono::nanoseconds deadline{0};
  /// Absolute end-to-end deadline (steady clock; max() = none); the
  /// effective budget is the earlier of this and `deadline`. Submitting
  /// with an already-expired absolute deadline rejects immediately with
  /// DeadlineExceededError (counted as timed_out) — mirroring the server
  /// layer's dead-on-arrival rejection.
  std::chrono::steady_clock::time_point deadline_at =
      std::chrono::steady_clock::time_point::max();
};

struct RouterOptions {
  /// Number of shards, each its own InferenceServer (own workers, queues,
  /// engines) built from `shard`.
  int shards = 2;
  /// Per-shard server configuration. `shard.faults` is the fleet's one
  /// fault plan: the router's injector (shard kill / stall / probe-failure
  /// / snapshot-corruption sites) and every shard server's own injector
  /// (engine / fallback / delay / spike sites) are built from it, so they
  /// share a plan and a seed.
  ServeOptions shard;

  // ---- Failover -----------------------------------------------------------
  /// Budget for one attempt on one shard (admission wait + service),
  /// additionally capped by the caller's remaining deadline.
  std::chrono::microseconds attempt_timeout{50000};

  // ---- Health -------------------------------------------------------------
  // The breaker thresholds and the EWMA smoothing are constants in
  // shard_router.cpp: error EWMA 0.9 or 3 consecutive failures eject a
  // shard, 2 consecutive probation successes readmit it.
  /// Initial ejection backoff; doubles per re-ejection up to `max_backoff`,
  /// resets when the shard re-enters healthy.
  std::chrono::milliseconds probation_backoff{5};
  std::chrono::milliseconds max_backoff{200};

  // ---- Probing ------------------------------------------------------------
  /// Background prober period (0 disables the prober thread). Probes play
  /// a synthetic request for the alphabetically first model of each live
  /// shard's registry (`ModelRegistry::names()` is sorted) and feed the
  /// same health EWMAs as real traffic — so probation shards re-enter and
  /// sick shards are ejected even when idle.
  std::chrono::milliseconds probe_interval{0};
  std::chrono::microseconds probe_timeout{50000};

  // ---- Quotas -------------------------------------------------------------
  /// Per-tenant quotas; tenants not listed are unlimited.
  std::unordered_map<std::string, TenantQuota> tenant_quotas;
};

/// One recorded health-state transition (for tests and the demo's
/// transition log).
struct HealthTransition {
  int shard = -1;
  ShardHealth from = ShardHealth::kHealthy;
  ShardHealth to = ShardHealth::kHealthy;
  std::chrono::steady_clock::time_point at{};
};

/// Router-side view of one shard.
struct ShardStats {
  ShardHealth health = ShardHealth::kHealthy;
  bool alive = true;
  std::uint64_t routed = 0;     ///< attempts dispatched (incl. health probes)
  std::uint64_t completed = 0;  ///< attempts that returned a result
  std::uint64_t failed = 0;     ///< attempts that errored / timed out
  std::uint64_t kills = 0;      ///< times the shard died
  std::uint64_t restarts = 0;   ///< successful rebuilds
  double error_ewma = 0.0;
  double latency_ewma_ms = 0.0;
  /// The shard server's own accounting (zeroed while the shard is dead —
  /// a rebuilt server starts fresh).
  ServerStats server;
};

/// Per-tenant accounting; same drain invariant as the aggregate.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t quota_rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t failed = 0;
};

/// Aggregate router statistics. After a drain,
/// submitted == completed + quota_rejected + shed + timed_out + failed.
struct RouterStats {
  std::uint64_t submitted = 0;       ///< submit() calls
  std::uint64_t completed = 0;
  std::uint64_t quota_rejected = 0;  ///< TenantQuotaError at admission
  std::uint64_t shed = 0;            ///< OverloadError after failover
  std::uint64_t timed_out = 0;       ///< DeadlineExceededError outcomes
  std::uint64_t failed = 0;          ///< any other terminal error
  std::uint64_t failovers = 0;       ///< attempts beyond a request's first
  std::uint64_t forced_recoveries = 0;  ///< restarts forced by zero
                                        ///< eligible shards
  std::vector<ShardStats> shards;
  std::map<std::string, TenantStats> tenants;
  /// Router-observed end-to-end latency of completed requests (includes
  /// failover time; merged across all tenants).
  LatencyHistogram latency_ns;
  /// Kill/eject -> healthy recovery times, milliseconds.
  Accumulator recovery_ms;
};

/// Everything a shard build gets from the router.
struct ShardContext {
  int shard = -1;
  FaultInjector& faults;  ///< router's injector (snapshot loads hook into it)
};

/// A built shard: its registry (kept alive for the server's lifetime) and
/// the server itself.
struct ShardInstance {
  std::shared_ptr<const ModelRegistry> registry;
  std::shared_ptr<InferenceServer> server;
};

/// Builds (and rebuilds, after kills) one shard. May throw — e.g.
/// SnapshotError from a factory that restores models from corrupted
/// snapshot files; the shard then stays dead until the next backoff expiry.
using ShardFactory = std::function<ShardInstance(const ShardContext&)>;

class ShardRouter {
 public:
  /// Shards share `models` (one registry, N servers). The registry must be
  /// provided as shared ownership so rebuilt shards can reference it.
  ShardRouter(std::shared_ptr<const ModelRegistry> models,
              RouterOptions opts = {});
  /// Shards are built by `factory` — the snapshot-restore path, where each
  /// shard loads its own registry from disk.
  ShardRouter(ShardFactory factory, RouterOptions opts = {});

  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Route one request: quota gate, rendezvous ranking, health-gated
  /// failover within the caller's deadline. Blocks
  /// until a result or a terminal error: TenantQuotaError (quota),
  /// OverloadError (all eligible shards shed), DeadlineExceededError
  /// (budget exhausted), ShutdownError (router stopping), or the last
  /// attempt's error. The returned output is byte-identical to a solo
  /// run_network; `result.shard` says which shard served it.
  [[nodiscard]] InferenceResult submit(const std::string& model,
                                       nn::Tensor input,
                                       const RouteOptions& ropts = {});

  /// Stop shard `i` (drain-then-join: its queued work still completes) and
  /// mark it dead + ejected. It re-enters through the factory + probation
  /// path like an injected kill.
  void kill_shard(int shard);
  /// Rebuild a dead shard now (ignoring backoff). Returns false (and keeps
  /// the shard dead) when the factory throws.
  bool restart_shard(int shard);

  /// Refuse new submissions, stop the prober, drain and join every shard.
  /// Idempotent.
  void stop();

  [[nodiscard]] RouterStats stats() const;
  /// Health-transition log, oldest first (capped; the newest are kept).
  [[nodiscard]] std::vector<HealthTransition> transitions() const;
  /// Rendezvous preference order for (model, tenant) — ignores health;
  /// index 0 is the primary. Stable across calls and across restarts.
  [[nodiscard]] std::vector<int> rank_shards(const std::string& model,
                                             const std::string& tenant) const;
  [[nodiscard]] int shard_count() const noexcept { return opts_.shards; }
  [[nodiscard]] const RouterOptions& options() const noexcept { return opts_; }
  [[nodiscard]] const FaultInjector& fault_injector() const noexcept {
    return injector_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Shard {
    std::shared_ptr<InferenceServer> server;  ///< null while dead
    std::shared_ptr<const ModelRegistry> registry;
    ShardHealth health = ShardHealth::kHealthy;
    bool alive = true;
    bool restarting = false;  ///< a thread holds the (unlocked) factory call
    Ewma error_ewma;
    Ewma latency_ewma;
    int consecutive_failures = 0;
    int probation_successes = 0;
    Clock::time_point eject_until = Clock::time_point::min();
    Clock::time_point stall_until = Clock::time_point::min();
    std::chrono::milliseconds backoff{0};
    Clock::time_point down_since = Clock::time_point::min();
    std::uint64_t routed = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t kills = 0;
    std::uint64_t restarts = 0;
    /// Bumped by every kill and restart: the server an attempt went to is
    /// still this shard's only while the generation it captured matches.
    std::uint64_t generation = 0;
  };

  struct Bucket {
    double tokens = 0.0;
    Clock::time_point last{};
    bool seeded = false;
  };

  void build_shards();
  /// Charge one token for `tenant`; false = quota exhausted. Lock held.
  bool charge_quota(const std::string& tenant, Clock::time_point now);
  /// Record a health transition and apply it. Lock held.
  void set_health(int shard, ShardHealth to, Clock::time_point now);
  /// Account one attempt's outcome on `shard`. The breaker (EWMAs,
  /// consecutive failures, probation) only hears it when `generation` is
  /// still the shard's: an outcome drained from a killed server must not
  /// judge the server that replaced it. Lock held.
  void record_success(int shard, std::uint64_t generation,
                      std::chrono::nanoseconds latency, Clock::time_point now);
  void record_failure(int shard, std::uint64_t generation, Clock::time_point now);
  /// Start shard `s`'s ejection backoff, or double it (capped at
  /// max_backoff), and eject it until `now` plus the backoff. Lock held.
  void back_off(Shard& s, Clock::time_point now);
  /// True when shard `i` may take traffic now (alive and not inside an
  /// ejection backoff; lazily moves expired ejections to probation).
  bool eligible(int shard, Clock::time_point now);
  /// Rebuild a dead shard via the factory. Lock held on entry and exit
  /// (dropped around the factory call). False when the factory throws.
  bool try_restart(int shard, Clock::time_point now,
                   std::unique_lock<std::mutex>& lock);
  void prober_loop();

  RouterOptions opts_;
  ShardFactory factory_;
  FaultInjector injector_;

  mutable std::mutex mutex_;
  std::condition_variable stop_cv_;  ///< wakes the prober at stop()
  std::vector<Shard> shards_;
  std::unordered_map<std::string, Bucket> buckets_;
  RouterStats stats_;
  std::vector<HealthTransition> transitions_;
  bool stopping_ = false;
  std::uint64_t probe_counter_ = 0;

  std::once_flag join_once_;
  std::thread prober_;
};

}  // namespace loom::serve
