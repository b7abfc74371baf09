#include "serve/shard_router.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace loom::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Failover passes over the ranking before giving up, for requests with no
/// deadline (deadlined requests stop when the budget expires).
constexpr int kMaxPasses = 32;
/// Smoothing for the per-shard error-rate and latency EWMAs.
constexpr double kEwmaAlpha = 0.3;
/// Error EWMA at which a shard is ejected outright.
constexpr double kEjectErrorRate = 0.9;
/// Consecutive failures that eject a shard regardless of EWMA.
constexpr int kEjectAfterConsecutive = 3;
/// Consecutive probation successes that readmit a shard as healthy.
constexpr int kReenterSuccesses = 2;
/// Salt for the rendezvous ranking (changing it reshuffles affinity).
constexpr std::uint64_t kRendezvousSeed = 0x4c4f4f4d'53524452ull;  // "LOOMSRDR"

[[nodiscard]] std::uint64_t ns_of(Clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  return ns.count() < 0 ? 0 : static_cast<std::uint64_t>(ns.count());
}

[[nodiscard]] double ms_of(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Rendezvous key for (model, tenant). The tenant hash is re-mixed before
/// combining so ("ab","c") and ("a","bc")-style collisions cannot align.
[[nodiscard]] std::uint64_t route_key(const std::string& model,
                                      const std::string& tenant) {
  return fnv1a64(model) ^ mix64(fnv1a64(tenant));
}

/// Factory for the shared-registry constructor: every shard is a fresh
/// InferenceServer over the same registry.
[[nodiscard]] ShardFactory shared_registry_factory(
    std::shared_ptr<const ModelRegistry> models, const RouterOptions& opts) {
  LOOM_EXPECTS(models != nullptr);
  return [models = std::move(models),
          shard_opts = opts.shard](const ShardContext&) {
    return ShardInstance{
        models, std::make_shared<InferenceServer>(*models, shard_opts)};
  };
}

}  // namespace

const char* health_name(ShardHealth h) noexcept {
  switch (h) {
    case ShardHealth::kHealthy: return "healthy";
    case ShardHealth::kEjected: return "ejected";
    case ShardHealth::kProbation: return "probation";
  }
  return "?";
}

ShardRouter::ShardRouter(std::shared_ptr<const ModelRegistry> models,
                         RouterOptions opts)
    // `opts` is read by the factory builder and copied into the delegated
    // constructor; both are plain reads, so their (indeterminate) argument
    // order is harmless.
    : ShardRouter(shared_registry_factory(std::move(models), opts), opts) {}

ShardRouter::ShardRouter(ShardFactory factory, RouterOptions opts)
    : opts_(std::move(opts)),
      factory_(std::move(factory)),
      injector_(opts_.shard.faults) {
  LOOM_EXPECTS(factory_ != nullptr);
  LOOM_EXPECTS(opts_.shards >= 1);
  LOOM_EXPECTS(opts_.attempt_timeout.count() > 0);
  LOOM_EXPECTS(opts_.probation_backoff.count() >= 0);
  LOOM_EXPECTS(opts_.max_backoff >= opts_.probation_backoff);
  LOOM_EXPECTS(opts_.probe_interval.count() >= 0);
  LOOM_EXPECTS(opts_.probe_timeout.count() > 0);
  build_shards();
  if (opts_.probe_interval.count() > 0) {
    prober_ = std::thread([this] { prober_loop(); });
  }
}

ShardRouter::~ShardRouter() { stop(); }

void ShardRouter::build_shards() {
  shards_.resize(static_cast<std::size_t>(opts_.shards));
  for (int i = 0; i < opts_.shards; ++i) {
    Shard& s = shards_[static_cast<std::size_t>(i)];
    s.error_ewma = Ewma(kEwmaAlpha);
    s.latency_ewma = Ewma(kEwmaAlpha);
    // The initial build is not fault-gated: a throwing factory here is a
    // configuration error, not a runtime fault.
    ShardInstance inst = factory_(ShardContext{i, injector_});
    LOOM_EXPECTS(inst.server != nullptr);
    LOOM_EXPECTS(inst.registry != nullptr);
    s.server = std::move(inst.server);
    s.registry = std::move(inst.registry);
  }
}

std::vector<int> ShardRouter::rank_shards(const std::string& model,
                                          const std::string& tenant) const {
  const std::uint64_t key = route_key(model, tenant);
  std::vector<std::pair<std::uint64_t, int>> scored;
  scored.reserve(static_cast<std::size_t>(opts_.shards));
  for (int i = 0; i < opts_.shards; ++i) {
    const std::uint64_t salt =
        mix64(kRendezvousSeed + static_cast<std::uint64_t>(i));
    scored.emplace_back(mix64(key ^ salt), i);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<int> order;
  order.reserve(scored.size());
  for (const auto& [score, i] : scored) order.push_back(i);
  return order;
}

bool ShardRouter::charge_quota(const std::string& tenant,
                               Clock::time_point now) {
  const auto it = opts_.tenant_quotas.find(tenant);
  if (it == opts_.tenant_quotas.end()) return true;  // unlisted: unlimited
  const TenantQuota& q = it->second;
  if (q.rate_per_sec <= 0.0) return true;
  const double cap = std::max(1.0, q.burst);
  Bucket& b = buckets_[tenant];
  if (!b.seeded) {
    b.tokens = cap;  // a new tenant starts with a full burst allowance
    b.last = now;
    b.seeded = true;
  } else {
    const double sec = std::chrono::duration<double>(now - b.last).count();
    b.tokens = std::min(cap, b.tokens + sec * q.rate_per_sec);
    b.last = now;
  }
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    return true;
  }
  return false;
}

void ShardRouter::set_health(int shard, ShardHealth to, Clock::time_point now) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  if (s.health == to) return;
  // Bounded transition log: keep the newest entries (drop the oldest half
  // when full, so appends stay amortized O(1)).
  constexpr std::size_t kMaxTransitions = 2048;
  if (transitions_.size() >= kMaxTransitions) {
    transitions_.erase(transitions_.begin(),
                       transitions_.begin() + kMaxTransitions / 2);
  }
  transitions_.push_back(HealthTransition{shard, s.health, to, now});
  s.health = to;
}

void ShardRouter::back_off(Shard& s, Clock::time_point now) {
  s.backoff = s.backoff.count() == 0
                  ? opts_.probation_backoff
                  : std::min(opts_.max_backoff, s.backoff * 2);
  s.eject_until = now + s.backoff;
}

void ShardRouter::record_success(int shard, std::uint64_t generation,
                                 std::chrono::nanoseconds latency,
                                 Clock::time_point now) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  ++s.completed;
  if (generation != s.generation) return;
  s.error_ewma.add(0.0);
  s.latency_ewma.add(
      std::chrono::duration<double, std::milli>(latency).count());
  s.consecutive_failures = 0;
  if (s.health == ShardHealth::kProbation) {
    if (++s.probation_successes >= kReenterSuccesses) {
      set_health(shard, ShardHealth::kHealthy, now);
      s.backoff = std::chrono::milliseconds(0);
      if (s.down_since != Clock::time_point::min()) {
        stats_.recovery_ms.add(ms_of(now - s.down_since));
        s.down_since = Clock::time_point::min();
      }
    }
  }
}

void ShardRouter::record_failure(int shard, std::uint64_t generation,
                                 Clock::time_point now) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  ++s.failed;
  if (generation != s.generation) return;
  s.error_ewma.add(1.0);
  ++s.consecutive_failures;
  if (s.health == ShardHealth::kEjected) return;  // already out of traffic
  const bool probation_slip = s.health == ShardHealth::kProbation;
  const bool eject =
      probation_slip ||  // half-open trial failed: straight back out
      s.consecutive_failures >= kEjectAfterConsecutive ||
      s.error_ewma.value() >= kEjectErrorRate;
  if (eject) {
    back_off(s, now);
    s.probation_successes = 0;
    if (s.down_since == Clock::time_point::min()) s.down_since = now;
    set_health(shard, ShardHealth::kEjected, now);
  }
}

bool ShardRouter::eligible(int shard, Clock::time_point now) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  if (!s.alive || s.server == nullptr) return false;
  if (s.health == ShardHealth::kEjected) {
    if (now < s.eject_until) return false;
    // Backoff expired: half-open. Trial traffic decides readmission.
    s.probation_successes = 0;
    set_health(shard, ShardHealth::kProbation, now);
  }
  return true;
}

bool ShardRouter::try_restart(int shard, Clock::time_point now,
                              std::unique_lock<std::mutex>& lock) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  if (s.alive || s.restarting || stopping_) return false;
  s.restarting = true;
  lock.unlock();
  // The factory runs unlocked: it builds an InferenceServer (spawns
  // workers) and may load snapshots — both slow, and the snapshot load may
  // throw under injected corruption.
  ShardInstance inst;
  std::exception_ptr err;
  try {
    inst = factory_(ShardContext{shard, injector_});
    if (inst.server == nullptr || inst.registry == nullptr) {
      throw ConfigError("shard factory returned a null server or registry");
    }
  } catch (...) {
    err = std::current_exception();
  }
  lock.lock();
  s.restarting = false;
  if (stopping_) {
    if (inst.server != nullptr) {
      lock.unlock();
      inst.server->stop();
      lock.lock();
    }
    return false;
  }
  if (err != nullptr) {
    // Restart failed (e.g. SnapshotError): stay dead for another backoff.
    back_off(s, Clock::now());
    return false;
  }
  s.server = std::move(inst.server);
  s.registry = std::move(inst.registry);
  s.alive = true;
  ++s.restarts;
  ++s.generation;
  s.error_ewma.reset();
  s.latency_ewma.reset();
  s.consecutive_failures = 0;
  s.probation_successes = 0;
  set_health(shard, ShardHealth::kProbation, now);
  return true;
}

void ShardRouter::kill_shard(int shard) {
  LOOM_EXPECTS(shard >= 0 && shard < opts_.shards);
  std::shared_ptr<InferenceServer> victim;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Shard& s = shards_[static_cast<std::size_t>(shard)];
    if (!s.alive || s.server == nullptr) return;
    const Clock::time_point now = Clock::now();
    victim = std::move(s.server);
    s.server = nullptr;
    s.alive = false;
    ++s.kills;
    ++s.generation;
    s.consecutive_failures = 0;
    s.probation_successes = 0;
    s.error_ewma.reset();
    s.latency_ewma.reset();
    back_off(s, now);
    if (s.down_since == Clock::time_point::min()) s.down_since = now;
    set_health(shard, ShardHealth::kEjected, now);
  }
  // Drain-then-join outside the lock: the dying shard still completes its
  // admitted work, so a kill never loses an already-issued future.
  victim->stop();
}

bool ShardRouter::restart_shard(int shard) {
  LOOM_EXPECTS(shard >= 0 && shard < opts_.shards);
  std::unique_lock<std::mutex> lock(mutex_);
  shards_[static_cast<std::size_t>(shard)].eject_until =
      Clock::time_point::min();
  return try_restart(shard, Clock::now(), lock);
}

InferenceResult ShardRouter::submit(const std::string& model, nn::Tensor input,
                                    const RouteOptions& ropts) {
  LOOM_EXPECTS(ropts.deadline.count() >= 0);
  const Clock::time_point t0 = Clock::now();
  Clock::time_point deadline_at = ropts.deadline_at;
  if (ropts.deadline.count() > 0) {
    deadline_at = std::min(deadline_at, t0 + ropts.deadline);
  }

  // Terminal-outcome accounting: every submit() that passes admission ends
  // in exactly one bucket, so after a drain
  //   submitted == completed + quota_rejected + shed + timed_out + failed.
  const auto finish = [&](std::uint64_t RouterStats::*agg,
                          std::uint64_t TenantStats::*per) {
    ++(stats_.*agg);
    ++(stats_.tenants[ropts.tenant].*per);
  };

  const std::vector<int> rank = rank_shards(model, ropts.tenant);
  bool kill_primary = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw ShutdownError("shard router is stopping; request rejected");
    }
    ++stats_.submitted;
    ++stats_.tenants[ropts.tenant].submitted;
    if (!charge_quota(ropts.tenant, t0)) {
      finish(&RouterStats::quota_rejected, &TenantStats::quota_rejected);
      throw TenantQuotaError("tenant '" + ropts.tenant +
                             "' exhausted its token-bucket quota");
    }
    if (deadline_at <= t0) {
      // Dead on arrival: mirror the server layer's immediate rejection.
      finish(&RouterStats::timed_out, &TenantStats::timed_out);
      throw DeadlineExceededError(
          "request for '" + model +
          "' rejected at the router: absolute deadline already expired");
    }
    // Fault draws happen exactly once per request that passes admission,
    // against the rendezvous-primary shard, so the k-th admitted submit's
    // faults are a pure function of (seed, k) — never of thread
    // interleaving or retries.
    if (injector_.enabled()) {
      kill_primary = injector_.should_kill_shard();
      if (injector_.should_stall_shard()) {
        shards_[static_cast<std::size_t>(rank.front())].stall_until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               injector_.plan().shard_stall);
      }
    }
  }
  if (kill_primary) kill_shard(rank.front());

  std::exception_ptr last_error;
  bool saw_shed = false;
  std::uint64_t attempts = 0;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool attempted_this_pass = false;
    for (const int si : rank) {
      const Clock::time_point now = Clock::now();
      if (now >= deadline_at) {
        const std::lock_guard<std::mutex> lock(mutex_);
        finish(&RouterStats::timed_out, &TenantStats::timed_out);
        throw DeadlineExceededError("request for '" + model +
                                    "' ran out of deadline during failover");
      }

      std::shared_ptr<InferenceServer> server;
      std::shared_ptr<const ModelRegistry> registry;
      std::uint64_t generation = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (stopping_) {
          finish(&RouterStats::failed, &TenantStats::failed);
          throw ShutdownError("shard router stopped mid-request");
        }
        Shard& s = shards_[static_cast<std::size_t>(si)];
        if (!s.alive && now >= s.eject_until) {
          // Natural recovery: the backoff expired while we were routing.
          (void)try_restart(si, now, lock);
        }
        if (!eligible(si, now)) continue;
        if (s.stall_until > now) {
          // Injected stall: the shard refuses service; burn the attempt
          // and fail over like a timeout would.
          ++s.routed;
          ++attempts;
          if (attempts > 1) ++stats_.failovers;
          record_failure(si, s.generation, now);
          attempted_this_pass = true;
          continue;
        }
        server = s.server;
        registry = s.registry;
        generation = s.generation;
        ++s.routed;
        ++attempts;
        if (attempts > 1) ++stats_.failovers;
      }
      attempted_this_pass = true;

      std::shared_ptr<const Model> handle;
      try {
        handle = registry->find(model);
      } catch (...) {
        // Unknown model is terminal — no shard will know it either.
        const std::lock_guard<std::mutex> lock(mutex_);
        finish(&RouterStats::failed, &TenantStats::failed);
        throw;
      }

      // The latency EWMA is charged from this attempt's own start, so a
      // failover's earlier waits never land on the shard that served it.
      const Clock::time_point sent = Clock::now();
      SubmitOptions so;
      so.priority = ropts.priority;
      so.deadline_at = std::min(deadline_at, sent + opts_.attempt_timeout);
      const auto admit_budget = std::max(
          std::chrono::nanoseconds(0),
          std::chrono::duration_cast<std::chrono::nanoseconds>(so.deadline_at -
                                                               sent));
      try {
        InferenceResult res =
            server->try_submit(handle, input, admit_budget, so).get();
        res.shard = si;
        const Clock::time_point done = Clock::now();
        const std::lock_guard<std::mutex> lock(mutex_);
        record_success(si, generation, done - sent, done);
        finish(&RouterStats::completed, &TenantStats::completed);
        stats_.latency_ns.add(ns_of(done - t0));
        return res;
      } catch (const OverloadError&) {
        saw_shed = true;
        last_error = std::current_exception();
      } catch (...) {
        // Deadline, ShutdownError (the shard was killed under us), engine
        // errors, …
        last_error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      record_failure(si, generation, Clock::now());
    }

    if (!attempted_this_pass) {
      // Zero eligible shards: force recovery rather than failing a request
      // that still has budget. Restart the best-ranked dead shard ignoring
      // its backoff; failing that, cut short the best-ranked ejection.
      std::unique_lock<std::mutex> lock(mutex_);
      if (stopping_) {
        finish(&RouterStats::failed, &TenantStats::failed);
        throw ShutdownError("shard router stopped mid-request");
      }
      const Clock::time_point now = Clock::now();
      bool forced = false;
      for (const int si : rank) {
        Shard& s = shards_[static_cast<std::size_t>(si)];
        if (!s.alive && !s.restarting) {
          ++stats_.forced_recoveries;
          s.eject_until = Clock::time_point::min();
          forced = try_restart(si, now, lock);
          break;
        }
        if (s.alive && s.health == ShardHealth::kEjected &&
            s.eject_until > now) {
          ++stats_.forced_recoveries;
          s.eject_until = now;  // eligible() flips it to probation
          forced = true;
          break;
        }
      }
      if (!forced && !std::any_of(shards_.begin(), shards_.end(),
                                  [](const Shard& s) {
                                    return s.alive || s.restarting;
                                  })) {
        // Every shard is dead and the factory keeps failing; the passes
        // bound gives up below.
        continue;
      }
    }
  }

  // Failover budget exhausted: classify the terminal outcome.
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Clock::now() >= deadline_at) {
    finish(&RouterStats::timed_out, &TenantStats::timed_out);
    throw DeadlineExceededError("request for '" + model +
                                "' ran out of deadline during failover");
  }
  if (last_error != nullptr) {
    if (saw_shed) {
      finish(&RouterStats::shed, &TenantStats::shed);
    } else {
      finish(&RouterStats::failed, &TenantStats::failed);
    }
    std::rethrow_exception(last_error);
  }
  finish(&RouterStats::shed, &TenantStats::shed);
  throw OverloadError("request for '" + model + "' found no eligible shard in " +
                      std::to_string(kMaxPasses) + " failover passes");
}

void ShardRouter::prober_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stop_cv_.wait_for(lock, opts_.probe_interval,
                            [this] { return stopping_; })) {
        return;
      }
    }
    for (int si = 0; si < opts_.shards; ++si) {
      std::shared_ptr<InferenceServer> server;
      std::shared_ptr<const ModelRegistry> registry;
      std::uint64_t generation = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (stopping_) return;
        const Clock::time_point now = Clock::now();
        Shard& s = shards_[static_cast<std::size_t>(si)];
        if (!s.alive && now >= s.eject_until) (void)try_restart(si, now, lock);
        if (!eligible(si, now)) continue;
        if (s.stall_until > now) continue;  // a stalled probe tells us nothing new
        ++s.routed;  // probes are attempts too: keep routed >= completed+failed
        server = s.server;
        registry = s.registry;
        generation = s.generation;
      }
      if (injector_.should_fail_probe()) {
        const std::lock_guard<std::mutex> lock(mutex_);
        record_failure(si, generation, Clock::now());
        continue;
      }
      try {
        const std::shared_ptr<const Model> handle =
            registry->find(registry->names().front());
        const Clock::time_point sent = Clock::now();
        // Best-effort priority: probes are the first thing shed under real
        // load, so probing never steals capacity from user traffic.
        SubmitOptions so;
        so.priority = Priority::kBestEffort;
        so.deadline_at = sent + opts_.probe_timeout;
        std::future<InferenceResult> fut = server->try_submit(
            handle, handle->make_input(0xB10B, probe_counter_++),
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                opts_.probe_timeout),
            so);
        (void)fut.get();
        const std::lock_guard<std::mutex> lock(mutex_);
        record_success(si, generation, Clock::now() - sent, Clock::now());
      } catch (const OverloadError&) {
        // A shed probe means the shard is busy, not broken — no signal.
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        record_failure(si, generation, Clock::now());
      }
    }
  }
}

void ShardRouter::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  std::call_once(join_once_, [this] {
    if (prober_.joinable()) prober_.join();
  });
  // Drain every shard outside the lock (their stop() is idempotent).
  std::vector<std::shared_ptr<InferenceServer>> servers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (Shard& s : shards_) servers.push_back(s.server);
  }
  for (const auto& server : servers) {
    if (server != nullptr) server->stop();
  }
}

RouterStats ShardRouter::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  RouterStats out = stats_;
  out.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = shards_[i];
    ShardStats ss;
    ss.health = s.health;
    ss.alive = s.alive;
    ss.routed = s.routed;
    ss.completed = s.completed;
    ss.failed = s.failed;
    ss.kills = s.kills;
    ss.restarts = s.restarts;
    ss.error_ewma = s.error_ewma.value();
    ss.latency_ewma_ms = s.latency_ewma.value();
    if (s.server != nullptr) ss.server = s.server->stats();
    out.shards.push_back(std::move(ss));
  }
  return out;
}

std::vector<HealthTransition> ShardRouter::transitions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

}  // namespace loom::serve
