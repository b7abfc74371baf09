// Shard-router chaos harness: 4 producer threads vs 3 shards whose models
// are restored from binary snapshots, with injected shard kills, stalls,
// engine faults and corrupt-snapshot-on-restart all armed at 20%.
// Invariants, per seed:
//   - zero lost requests: every submit() returns a result or throws a
//     typed error — outcome tally == submit count;
//   - every successful output is byte-identical to a solo run_network
//     (failover, restarts and snapshot restores never change
//     *what* was computed);
//   - RouterStats reconcile exactly:
//     submitted == completed + quota_rejected + shed + timed_out + failed,
//     in aggregate and per tenant, and the latency histogram holds exactly
//     the completed requests;
//   - the injected fault multiset replays: same seed -> same fired
//     counters (LOOM_ROUTER_FAULT_SEED pins one iteration for replay).
// Runs under TSan/ASan via the sim test label.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/shard_router.hpp"
#include "sim/functional.hpp"

namespace loom::serve {
namespace {

constexpr std::uint64_t kInputSeed = 77;
constexpr int kProducers = 4;
constexpr int kPerProducer = 10;
constexpr int kShards = 3;

std::shared_ptr<ModelRegistry> populate() {
  auto registry = std::make_shared<ModelRegistry>();
  {
    nn::Network net("convnet", nn::Shape3{6, 12, 12});
    net.add_conv("c1", 12, 3, 1, 1).precision_group = 0;
    net.add_pool("p1", nn::PoolKind::kMax, 2, 2);
    net.add_fc("logits", 9);
    quant::PrecisionProfile p;
    p.network = "convnet";
    p.conv_act = {7};
    p.conv_weight = 9;
    p.fc_weight = {8};
    quant::apply_profile(net, p);
    registry->add_synthetic("convnet", std::move(net), p, /*seed=*/31);
  }
  {
    nn::Network net("mlp", nn::Shape3{96, 1, 1});
    net.add_fc("h1", 40);
    net.add_fc("logits", 12);
    quant::PrecisionProfile p;
    p.network = "mlp";
    p.conv_weight = 11;
    p.fc_weight = {10, 9};
    quant::apply_profile(net, p);
    registry->add_synthetic("mlp", std::move(net), p, /*seed=*/32);
  }
  return registry;
}

/// Solo ground truth, keyed (model, stream).
std::map<std::pair<std::string, int>, nn::Tensor> solo_outputs(
    const ModelRegistry& registry, int streams) {
  std::map<std::pair<std::string, int>, nn::Tensor> out;
  for (const std::string& name : registry.names()) {
    const auto model = registry.find(name);
    sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
    for (int s = 0; s < streams; ++s) {
      out.emplace(
          std::make_pair(name, s),
          engine
              .run_network(model->net, model->make_input(kInputSeed, s),
                           model->weights)
              .output);
    }
  }
  return out;
}

std::vector<std::uint64_t> iteration_seeds(std::uint64_t base, int count) {
  if (const char* env = std::getenv("LOOM_ROUTER_FAULT_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

struct Observed {
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;  ///< byte-identity violations (must be 0)
};

TEST(ShardRouterChaos, KillsStallsAndCorruptSnapshotsKeepEveryInvariant) {
  const auto source = populate();
  const auto expected = solo_outputs(*source, kProducers * kPerProducer);

  // Shards restore their models from snapshot files — the crash-safe
  // restart path. Rebuilds (not the initial construction) go through the
  // router's injector, so a restart may hit a corrupted image, throw
  // SnapshotError, and leave the shard dead for another backoff.
  const std::string dir = testing::TempDir();
  for (const std::string& name : source->names()) {
    save_snapshot(*source->find(name), dir + name + ".snap");
  }

  for (const std::uint64_t seed : iteration_seeds(0x50DA, 2)) {
    SCOPED_TRACE("LOOM_ROUTER_FAULT_SEED=" + std::to_string(seed));

    RouterOptions opts;
    opts.shards = kShards;
    opts.shard.max_batch = 4;
    opts.shard.batch_deadline = std::chrono::microseconds(200);
    opts.shard.queue_depth = 8;
    opts.shard.workers = 1;
    opts.shard.engine_retries = 1;
    opts.shard.retry_backoff = std::chrono::microseconds(50);
    opts.shard.engine.jobs = 1;
    opts.attempt_timeout = std::chrono::microseconds(250'000);
    opts.probation_backoff = std::chrono::milliseconds(2);
    opts.max_backoff = std::chrono::milliseconds(50);
    opts.probe_interval = std::chrono::milliseconds(5);
    opts.probe_timeout = std::chrono::microseconds(100'000);
    opts.shard.faults.seed = seed;
    opts.shard.faults.engine_failure_prob = 0.20;
    opts.shard.faults.fallback_failure_prob = 0.05;
    opts.shard.faults.shard_kill_prob = 0.20;
    opts.shard.faults.shard_stall_prob = 0.20;
    opts.shard.faults.shard_stall = std::chrono::microseconds(2'000);
    opts.shard.faults.probe_failure_prob = 0.20;
    opts.shard.faults.snapshot_corrupt_prob = 0.20;

    std::array<std::atomic<int>, kShards> builds{};
    ShardFactory factory = [&, dir](const ShardContext& ctx) -> ShardInstance {
      const bool rebuild =
          builds[static_cast<std::size_t>(ctx.shard)].fetch_add(1) > 0;
      auto registry = std::make_shared<ModelRegistry>();
      for (const std::string& name : {std::string("convnet"),
                                      std::string("mlp")}) {
        registry->add(*load_snapshot(dir + name + ".snap",
                                     rebuild ? &ctx.faults : nullptr));
      }
      auto server = std::make_shared<InferenceServer>(*registry, opts.shard);
      return ShardInstance{std::move(registry), std::move(server)};
    };

    Observed tally;
    std::mutex tally_mutex;
    RouterStats stats;
    std::uint64_t kills_fired = 0;

    {
      ShardRouter router(factory, opts);
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p, seed] {
          SequentialRng rng(seed, static_cast<std::uint64_t>(p) + 500);
          Observed local;
          for (int i = 0; i < kPerProducer; ++i) {
            const int stream = p * kPerProducer + i;
            const std::string name = stream % 2 == 0 ? "convnet" : "mlp";
            const auto model = source->find(name);
            RouteOptions ropts;
            ropts.tenant = "tenant-" + std::to_string(p % 2);
            const std::uint64_t pick = rng.next_below(4);
            ropts.priority = pick == 0   ? Priority::kBatch
                             : pick == 1 ? Priority::kBestEffort
                                         : Priority::kInteractive;
            if (rng.next_below(4) == 0) {
              ropts.deadline = std::chrono::milliseconds(400);
            }
            try {
              const InferenceResult res = router.submit(
                  name, model->make_input(kInputSeed, stream), ropts);
              ++local.completed;
              EXPECT_GE(res.shard, 0);
              EXPECT_LT(res.shard, kShards);
              if (!(res.output == expected.at({name, stream}))) {
                ++local.mismatched;
              }
            } catch (const TenantQuotaError&) {
              ADD_FAILURE() << "no quotas configured, none may reject";
            } catch (const OverloadError&) {
              ++local.shed;
            } catch (const DeadlineExceededError&) {
              ++local.timed_out;
            } catch (const std::exception&) {
              ++local.failed;
            }
          }
          const std::lock_guard<std::mutex> lock(tally_mutex);
          tally.completed += local.completed;
          tally.shed += local.shed;
          tally.timed_out += local.timed_out;
          tally.failed += local.failed;
          tally.mismatched += local.mismatched;
        });
      }
      for (std::thread& t : producers) t.join();
      stats = router.stats();
      kills_fired = router.fault_injector().shard_kills_injected();
      if (kills_fired > 0) {
        EXPECT_FALSE(router.transitions().empty());
      }
      router.stop();
    }

    const std::uint64_t total =
        static_cast<std::uint64_t>(kProducers) * kPerProducer;

    // Zero lost requests: every call ended in exactly one tally bucket.
    EXPECT_EQ(tally.completed + tally.shed + tally.timed_out + tally.failed,
              total);
    // Byte-identity: sharding/failover never changed a result.
    EXPECT_EQ(tally.mismatched, 0u);

    // Router accounting reconciles exactly with what the callers saw.
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.completed, tally.completed);
    EXPECT_EQ(stats.quota_rejected, 0u);
    EXPECT_EQ(stats.shed, tally.shed);
    EXPECT_EQ(stats.timed_out, tally.timed_out);
    EXPECT_EQ(stats.failed, tally.failed);
    EXPECT_EQ(stats.submitted, stats.completed + stats.quota_rejected +
                                   stats.shed + stats.timed_out + stats.failed);
    EXPECT_EQ(stats.latency_ns.count(), stats.completed);

    // Per-tenant buckets sum to the aggregate and reconcile individually.
    std::uint64_t t_submitted = 0;
    std::uint64_t t_terminal = 0;
    for (const auto& [tenant, ts] : stats.tenants) {
      EXPECT_EQ(ts.submitted, ts.completed + ts.quota_rejected + ts.shed +
                                  ts.timed_out + ts.failed)
          << "tenant " << tenant;
      t_submitted += ts.submitted;
      t_terminal += ts.completed + ts.quota_rejected + ts.shed + ts.timed_out +
                    ts.failed;
    }
    EXPECT_EQ(t_submitted, stats.submitted);
    EXPECT_EQ(t_terminal, stats.submitted);

    // Shard-level sanity: all recorded kills trace back to injected ones
    // (an injected kill against an already-dead shard is a no-op, so the
    // recorded total may be lower but never higher).
    ASSERT_EQ(stats.shards.size(), static_cast<std::size_t>(kShards));
    std::uint64_t recorded_kills = 0;
    for (const ShardStats& s : stats.shards) recorded_kills += s.kills;
    EXPECT_LE(recorded_kills, kills_fired);
  }
}

TEST(ShardRouterChaos, SameSeedReplaysTheSameFaultMultiset) {
  const auto registry = populate();
  const auto expected = solo_outputs(*registry, 2 * kPerProducer);

  const auto run = [&](std::uint64_t seed) {
    RouterOptions opts;
    opts.shards = kShards;
    opts.shard.max_batch = 4;
    opts.shard.queue_depth = 64;
    opts.shard.workers = 1;
    opts.shard.engine.jobs = 1;
    opts.attempt_timeout = std::chrono::microseconds(2'000'000);
    opts.probation_backoff = std::chrono::milliseconds(1);
    opts.shard.faults.seed = seed;
    opts.shard.faults.shard_kill_prob = 0.25;  // kills only: restarts succeed

    ShardRouter router(registry, opts);
    std::uint64_t completed = 0;
    for (int i = 0; i < 2 * kPerProducer; ++i) {
      const std::string name = i % 2 == 0 ? "convnet" : "mlp";
      const auto model = registry->find(name);
      const InferenceResult res =
          router.submit(name, model->make_input(kInputSeed, i));
      EXPECT_EQ(res.output, expected.at({name, i})) << "request " << i;
      ++completed;
    }
    const RouterStats stats = router.stats();
    // Interactive, no deadline, restart-capable: nothing may be lost even
    // with a 25% kill rate — forced recovery guarantees availability.
    EXPECT_EQ(stats.completed, completed);
    EXPECT_EQ(stats.submitted, stats.completed);
    return router.fault_injector().shard_kills_injected();
  };

  const std::uint64_t first = run(0xD00D);
  const std::uint64_t second = run(0xD00D);
  EXPECT_EQ(first, second);  // same seed -> same injected kill multiset
  EXPECT_GT(first, 0u);      // 25% over 20 sequential draws: fires
}

TEST(ShardRouter, TenantQuotasRejectSeparatelyFromSheds) {
  const auto registry = populate();
  RouterOptions opts;
  opts.shards = 1;
  opts.shard.workers = 1;
  opts.shard.engine.jobs = 1;
  // ~No refill during the test: 2-token burst, then rejections.
  opts.tenant_quotas["limited"] = TenantQuota{0.001, 2.0};

  ShardRouter router(registry, opts);
  const auto model = registry->find("mlp");
  int ok = 0;
  int rejected = 0;
  for (int i = 0; i < 5; ++i) {
    try {
      (void)router.submit("mlp", model->make_input(kInputSeed, i),
                          RouteOptions{.tenant = "limited"});
      ++ok;
    } catch (const TenantQuotaError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rejected, 3);
  // The default tenant is unlimited and unaffected.
  EXPECT_NO_THROW((void)router.submit("mlp", model->make_input(kInputSeed, 9)));

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.quota_rejected, 3u);
  EXPECT_EQ(stats.shed, 0u);
  const TenantStats& limited = stats.tenants.at("limited");
  EXPECT_EQ(limited.submitted, 5u);
  EXPECT_EQ(limited.completed, 2u);
  EXPECT_EQ(limited.quota_rejected, 3u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.quota_rejected +
                                 stats.shed + stats.timed_out + stats.failed);
}

TEST(ShardRouter, PreExpiredDeadlineRejectsAtTheRouter) {
  const auto registry = populate();
  RouterOptions opts;
  opts.shards = 2;
  opts.shard.workers = 1;
  opts.shard.engine.jobs = 1;
  ShardRouter router(registry, opts);
  const auto model = registry->find("mlp");

  RouteOptions ropts;
  ropts.deadline_at =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)router.submit("mlp", model->make_input(kInputSeed, 0), ropts),
      DeadlineExceededError);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ShardRouter, RendezvousRankingIsAStablePermutation) {
  const auto registry = populate();
  RouterOptions opts;
  opts.shards = 4;
  opts.shard.workers = 1;
  opts.shard.engine.jobs = 1;
  ShardRouter router(registry, opts);

  std::vector<int> primaries;
  for (const char* model : {"convnet", "mlp", "a", "b", "c", "d"}) {
    for (const char* tenant : {"t0", "t1"}) {
      const std::vector<int> rank = router.rank_shards(model, tenant);
      ASSERT_EQ(rank.size(), 4u);
      std::vector<int> sorted = rank;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}))
          << model << "/" << tenant;
      EXPECT_EQ(rank, router.rank_shards(model, tenant));  // stable
      primaries.push_back(rank.front());
    }
  }
  // Rendezvous spreads keys: not every key lands on the same primary.
  EXPECT_GT(std::set<int>(primaries.begin(), primaries.end()).size(), 1u);

  // Ranking ignores health: a kill does not reshuffle affinity.
  const std::vector<int> before = router.rank_shards("convnet", "t0");
  router.kill_shard(before.front());
  EXPECT_EQ(router.rank_shards("convnet", "t0"), before);
}

// The rendezvous salt and hash are fixed: fixed (model, tenant) pairs keep
// their literal preference orders at every fleet size, so a change to the
// ranking (salt, hash or tie-break) shows up here, not as a reshuffled
// fleet in production.
TEST(ShardRouter, RankingMatchesPinnedOrders) {
  const auto registry = populate();
  struct Pin {
    int shards;
    const char* model;
    const char* tenant;
    std::vector<int> order;
  };
  const std::vector<Pin> pins = {
      {2, "convnet", "t0", {0, 1}},
      {2, "mlp", "t1", {1, 0}},
      {2, "convnet", "", {0, 1}},
      {3, "convnet", "t0", {0, 2, 1}},
      {3, "mlp", "t1", {1, 2, 0}},
      {3, "mlp", "", {2, 0, 1}},
      {5, "convnet", "t0", {0, 3, 2, 4, 1}},
      {5, "mlp", "t1", {1, 3, 2, 0, 4}},
      {5, "convnet", "t2", {1, 0, 3, 2, 4}},
  };
  for (const int shards : {2, 3, 5}) {
    RouterOptions opts;
    opts.shards = shards;
    opts.shard.workers = 1;
    opts.shard.engine.jobs = 1;
    ShardRouter router(registry, opts);
    for (const Pin& p : pins) {
      if (p.shards != shards) continue;
      EXPECT_EQ(router.rank_shards(p.model, p.tenant), p.order)
          << shards << " shards, " << p.model << "/" << p.tenant;
    }
  }
}

TEST(ShardRouter, FailoverServesFromNextRankedShardAfterKill) {
  const auto registry = populate();
  const auto expected = solo_outputs(*registry, 4);
  RouterOptions opts;
  opts.shards = 2;
  opts.shard.workers = 1;
  opts.shard.engine.jobs = 1;
  opts.probation_backoff = std::chrono::milliseconds(250);  // stays ejected
  opts.max_backoff = std::chrono::milliseconds(500);
  // Generous attempt budget: a timed-out attempt counts as a probation
  // failure and would re-eject the freshly restarted shard on slow
  // (sanitizer) builds.
  opts.attempt_timeout = std::chrono::microseconds(5'000'000);
  ShardRouter router(registry, opts);
  const auto model = registry->find("convnet");
  const std::vector<int> rank = router.rank_shards("convnet", "default");

  router.kill_shard(rank[0]);
  const InferenceResult res =
      router.submit("convnet", model->make_input(kInputSeed, 0));
  EXPECT_EQ(res.shard, rank[1]);  // failover target, not the dead primary
  EXPECT_EQ(res.output, expected.at({"convnet", 0}));

  // Manual restart: the shard re-enters through probation and serves again
  // (it is the rendezvous primary, so traffic returns to it).
  ASSERT_TRUE(router.restart_shard(rank[0]));
  for (int i = 1; i <= 3; ++i) {
    const InferenceResult r =
        router.submit("convnet", model->make_input(kInputSeed, i));
    EXPECT_EQ(r.shard, rank[0]) << "request " << i;
    EXPECT_EQ(r.output, (expected.at({"convnet", i})));
  }

  // The breaker walked ejected -> probation -> healthy; stats agree.
  const RouterStats stats = router.stats();
  const ShardStats& revived = stats.shards[static_cast<std::size_t>(rank[0])];
  EXPECT_EQ(revived.health, ShardHealth::kHealthy);
  EXPECT_TRUE(revived.alive);
  EXPECT_EQ(revived.kills, 1u);
  EXPECT_EQ(revived.restarts, 1u);
  bool saw_probation = false;
  bool saw_healthy_reentry = false;
  for (const HealthTransition& t : router.transitions()) {
    if (t.shard != rank[0]) continue;
    if (t.to == ShardHealth::kProbation) saw_probation = true;
    if (t.from == ShardHealth::kProbation && t.to == ShardHealth::kHealthy) {
      saw_healthy_reentry = true;
    }
  }
  EXPECT_TRUE(saw_probation);
  EXPECT_TRUE(saw_healthy_reentry);
  EXPECT_GE(stats.recovery_ms.count(), 1u);
}

/// Builds every shard over `registry` from `shard`, except that shard
/// `faulty` runs the fault plan `plan`.
ShardFactory faulty_shard_factory(std::shared_ptr<ModelRegistry> registry,
                                  const ServeOptions& shard, int faulty,
                                  const FaultPlan& plan) {
  return [registry = std::move(registry), shard, faulty,
          plan](const ShardContext& ctx) -> ShardInstance {
    ServeOptions so = shard;
    if (ctx.shard == faulty) so.faults = plan;
    return ShardInstance{registry,
                         std::make_shared<InferenceServer>(*registry, so)};
  };
}

/// A tenant whose "convnet" key has `shard` as its rendezvous primary.
std::string tenant_with_primary(const ShardRouter& router, int shard) {
  for (int t = 0;; ++t) {
    std::string name = "tenant-" + std::to_string(t);
    if (router.rank_shards("convnet", name).front() == shard) return name;
  }
}

TEST(ShardRouter, FaultyPrimaryFailsOver) {
  const auto registry = populate();
  const auto expected = solo_outputs(*registry, 1);
  constexpr int kFaulty = 0;

  RouterOptions opts;
  opts.shards = 3;
  opts.shard.max_batch = 1;
  opts.shard.workers = 1;
  opts.shard.engine.jobs = 1;
  opts.shard.retry_backoff = std::chrono::microseconds(10);
  opts.attempt_timeout = std::chrono::microseconds(5'000'000);
  // Only shard kFaulty fails: its engine and its scalar fallback both
  // throw on every run, so every attempt it takes resolves an error.
  FaultPlan always_fail;
  always_fail.engine_failure_prob = 1.0;
  always_fail.fallback_failure_prob = 1.0;
  ShardRouter router(
      faulty_shard_factory(registry, opts.shard, kFaulty, always_fail), opts);

  const auto model = registry->find("convnet");
  const InferenceResult res = router.submit(
      "convnet", model->make_input(kInputSeed, 0),
      RouteOptions{.tenant = tenant_with_primary(router, kFaulty)});
  EXPECT_NE(res.shard, kFaulty);
  EXPECT_EQ(res.output, expected.at({"convnet", 0}));

  const RouterStats stats = router.stats();
  EXPECT_GE(stats.shards[kFaulty].failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.quota_rejected +
                                 stats.shed + stats.timed_out + stats.failed);
}

// The latency EWMA of the shard that served a request is charged from that
// shard's own attempt, not from the start of submit(): the primary's failed
// attempt (two engine retries backing off 20 ms and 40 ms) must not land on
// the failover shard.
TEST(ShardRouter, LatencyEwmaTimesOnlyTheServingAttempt) {
  const auto registry = populate();
  constexpr int kFaulty = 0;
  constexpr auto kBackoff = std::chrono::milliseconds(20);

  RouterOptions opts;
  opts.shards = 2;
  opts.shard.max_batch = 1;
  opts.shard.workers = 1;
  opts.shard.engine.jobs = 1;
  opts.shard.engine_retries = 2;
  opts.shard.retry_backoff = kBackoff;
  opts.attempt_timeout = std::chrono::microseconds(5'000'000);
  FaultPlan always_fail;
  always_fail.engine_failure_prob = 1.0;
  always_fail.fallback_failure_prob = 1.0;
  ShardRouter router(
      faulty_shard_factory(registry, opts.shard, kFaulty, always_fail), opts);

  const auto model = registry->find("convnet");
  const RouteOptions ropts{.tenant = tenant_with_primary(router, kFaulty)};
  const auto t0 = std::chrono::steady_clock::now();
  const InferenceResult res =
      router.submit("convnet", model->make_input(kInputSeed, 0), ropts);
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - t0;
  ASSERT_NE(res.shard, kFaulty);

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.shards[kFaulty].failed, 1u);
  // The faulty attempt slept through both backoffs before it failed, so the
  // serving attempt took at most the wall time minus 3x kBackoff.
  const double served_ms =
      stats.shards[static_cast<std::size_t>(res.shard)].latency_ewma_ms;
  EXPECT_GT(served_ms, 0.0);
  EXPECT_LE(served_ms, wall.count() - 3.0 * kBackoff.count())
      << "wall " << wall.count() << " ms";
}

// Attempts in flight on a killed shard finish on the old server (the kill
// drains it) after the shard has been rebuilt. Their outcomes count in the
// shard's completed total but must not reach the new server's breaker: two
// stale successes would otherwise readmit it from probation and charge it
// the old server's latency.
TEST(ShardRouter, OutcomesFromAKilledServerSkipItsReplacementsBreaker) {
  const auto registry = populate();
  const auto expected = solo_outputs(*registry, 4);
  constexpr int kShard = 0;
  constexpr int kInFlight = 2;

  RouterOptions opts;
  opts.shards = 2;
  opts.shard.workers = kInFlight;
  opts.shard.max_batch = 1;
  opts.shard.engine.jobs = 1;
  opts.attempt_timeout = std::chrono::microseconds(5'000'000);
  // The first server of shard kShard sleeps before every batch, so its
  // attempts are still running when the rebuilt server takes over.
  FaultPlan slow;
  slow.batcher_delay_prob = 1.0;
  slow.batcher_delay = std::chrono::microseconds(400'000);
  std::atomic<int> builds{0};
  const ShardFactory plain = faulty_shard_factory(registry, opts.shard, -1, {});
  const ShardFactory first_slow =
      faulty_shard_factory(registry, opts.shard, kShard, slow);
  ShardRouter router(
      [&](const ShardContext& ctx) {
        return ctx.shard == kShard && builds++ == 0 ? first_slow(ctx) : plain(ctx);
      },
      opts);

  const auto model = registry->find("convnet");
  const RouteOptions ropts{.tenant = tenant_with_primary(router, kShard)};
  std::vector<std::thread> clients;
  std::vector<InferenceResult> stale(kInFlight);
  for (int i = 0; i < kInFlight; ++i) {
    clients.emplace_back([&, i] {
      stale[static_cast<std::size_t>(i)] =
          router.submit("convnet", model->make_input(kInputSeed, i), ropts);
    });
  }
  while (router.stats().shards[kShard].server.submitted < kInFlight) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread killer([&] { router.kill_shard(kShard); });
  while (router.stats().shards[kShard].alive) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(router.restart_shard(kShard));
  killer.join();
  for (std::thread& c : clients) c.join();
  for (int i = 0; i < kInFlight; ++i) {
    EXPECT_EQ(stale[static_cast<std::size_t>(i)].shard, kShard);
    EXPECT_EQ(stale[static_cast<std::size_t>(i)].output,
              (expected.at({"convnet", i})));
  }

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.shards[kShard].completed, static_cast<std::uint64_t>(kInFlight));
  EXPECT_EQ(stats.shards[kShard].health, ShardHealth::kProbation);
  EXPECT_EQ(stats.shards[kShard].latency_ewma_ms, 0.0);
  EXPECT_EQ(stats.shards[kShard].error_ewma, 0.0);

  // The new server's own two successes readmit it.
  for (int i = kInFlight; i < kInFlight + 2; ++i) {
    const InferenceResult r =
        router.submit("convnet", model->make_input(kInputSeed, i), ropts);
    EXPECT_EQ(r.shard, kShard);
    EXPECT_EQ(r.output, (expected.at({"convnet", i})));
  }
  stats = router.stats();
  EXPECT_EQ(stats.shards[kShard].health, ShardHealth::kHealthy);
  EXPECT_GT(stats.shards[kShard].latency_ewma_ms, 0.0);
}

// A shard whose error EWMA passes 0.5 without 3 failures in a row and
// without reaching 0.9 stays healthy: the breaker has three states, and a
// shard is either serving its keys or ejected.
TEST(ShardRouter, ErrorRateBelowEjectionKeepsTheShardHealthy) {
  const auto registry = populate();
  const auto expected = solo_outputs(*registry, 5);
  constexpr int kFaulty = 0;

  // The faulty shard runs one engine attempt per request and its fallback
  // always fails, so its k-th request fails exactly when the k-th draw of
  // the engine-failure site fires. Pick the first seed whose draws go
  // success, success, failure, failure, success: the error EWMA (0.3
  // smoothing) then reads 0, 0, 0.3, 0.51, 0.357.
  const std::vector<bool> pattern = {false, false, true, true, false};
  FaultPlan plan;
  plan.engine_failure_prob = 0.5;
  plan.fallback_failure_prob = 1.0;
  for (plan.seed = 1;; ++plan.seed) {
    FaultInjector probe(plan);
    std::vector<bool> draws;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      draws.push_back(probe.should_fail_engine());
    }
    if (draws == pattern) break;
  }

  RouterOptions opts;
  opts.shards = 2;
  opts.shard.max_batch = 1;
  opts.shard.workers = 1;
  opts.shard.engine.jobs = 1;
  opts.shard.engine_retries = 0;
  opts.attempt_timeout = std::chrono::microseconds(5'000'000);
  ShardRouter router(faulty_shard_factory(registry, opts.shard, kFaulty, plan),
                     opts);

  const auto model = registry->find("convnet");
  const RouteOptions ropts{.tenant = tenant_with_primary(router, kFaulty)};
  for (int i = 0; i < static_cast<int>(pattern.size()); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const InferenceResult res =
        router.submit("convnet", model->make_input(kInputSeed, i), ropts);
    EXPECT_EQ(res.output, expected.at({"convnet", i}));
    // A failed attempt on the primary fails over; a success is served
    // there, so the primary keeps serving its keys throughout.
    EXPECT_EQ(res.shard == kFaulty, !pattern[static_cast<std::size_t>(i)]);
    const ShardStats faulty = router.stats().shards[kFaulty];
    EXPECT_EQ(faulty.health, ShardHealth::kHealthy);
    if (i == 3) {
      EXPECT_GT(faulty.error_ewma, 0.5);
    }
  }
  EXPECT_TRUE(router.transitions().empty());
}

}  // namespace
}  // namespace loom::serve
