// Batched inference serving demo: two models behind one InferenceServer,
// several producer threads submitting interleaved requests, and a
// batched-vs-sequential throughput comparison on the same traffic.
//
//   ./build/examples/serve_demo
//   ./build/examples/serve_demo --priority=mixed --deadline-ms=5
//   ./build/examples/serve_demo --inject-faults --fault-seed=7
//
// Flags:
//   --priority=interactive|batch|besteffort|mixed
//       Class every request is submitted under; "mixed" (default) rotates
//       through all three. Interactive blocks at a full queue, batch sheds
//       when the queue is full, best-effort sheds at the watermark.
//   --deadline-ms=N   per-request deadline (0 = none, the default); expired
//       requests resolve with DeadlineExceededError and count as timed out.
//   --inject-faults   arm the deterministic fault injector (20% engine
//       failures, occasional batcher stalls and queue-pressure spikes) to
//       show retry -> scalar-fallback degradation keeping outputs exact.
//   --fault-seed=S    replay seed for the injector (default 1).
//
// Sharded mode (--shards=N with N >= 1 routes the same traffic through a
// ShardRouter instead of a single server and prints per-shard health
// transitions as they happen):
//   --shards=N              number of InferenceServer shards (0 = off).
//   --tenant=NAME           tenant the producers submit under ("default").
//   --quota-rps=R           token-bucket rate for that tenant (0 = unlimited;
//       burst fixed at 8). Exhausted tenants get TenantQuotaError, counted
//       separately from overload sheds.
//   --kill-shard-after-ms=N kill the traffic's primary shard N ms into the
//       run; failover reroutes and the circuit breaker restarts it
//       (watch the ejected -> probation -> healthy transitions).
//   --inject-faults in sharded mode also arms the shard-scoped sites:
//       shard kills, stalls, probe failures and snapshot corruption.
//
// The server coalesces concurrent requests per model into batches for the
// functional engine's gemm kernel; outputs are byte-identical to running
// each request alone (the demo spot-checks one request per model against a
// solo run), no matter which degradation path a batch took.
#include <chrono>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/options.hpp"
#include "serve/server.hpp"
#include "serve/shard_router.hpp"
#include "sim/functional.hpp"

using namespace loom;

namespace {

void populate_registry(serve::ModelRegistry& registry) {
  // A conv-heavy model: small-image convolution stack with a pool.
  {
    nn::Network net("convnet", nn::Shape3{8, 20, 20});
    net.add_conv("c1", 24, 3, 1, 1).precision_group = 0;
    net.add_pool("p1", nn::PoolKind::kMax, 2, 2);
    net.add_conv("c2", 16, 3, 1, 1).precision_group = 1;
    net.add_fc("logits", 10);
    quant::PrecisionProfile p;
    p.network = "convnet";
    p.conv_act = {8, 7};
    p.conv_weight = 9;
    p.fc_weight = {8};
    quant::apply_profile(net, p);
    registry.add_synthetic("convnet", std::move(net), p, /*seed=*/11);
  }

  // An FC-heavy model: the regime where a lone request fills almost none of
  // the 64 lanes and cross-request batching pays the most.
  {
    nn::Network net("mlp", nn::Shape3{256, 1, 1});
    net.add_fc("h1", 96);
    net.add_fc("h2", 48);
    net.add_fc("logits", 10);
    quant::PrecisionProfile p;
    p.network = "mlp";
    p.conv_weight = 8;
    p.fc_weight = {8, 8, 8};
    quant::apply_profile(net, p);
    registry.add_synthetic("mlp", std::move(net), p, /*seed=*/12);
  }
}

serve::Priority priority_for(const std::string& mode, int id) {
  if (mode == "interactive") return serve::Priority::kInteractive;
  if (mode == "batch") return serve::Priority::kBatch;
  if (mode == "besteffort") return serve::Priority::kBestEffort;
  return static_cast<serve::Priority>(id % serve::kPriorityClasses);  // mixed
}

// ---- Sharded mode ---------------------------------------------------------
// The same producers, routed through a ShardRouter: rendezvous affinity,
// health-gated failover, per-tenant quotas, and a live transition log.
int run_sharded(const core::Options& cli) {
  const std::string priority_mode = cli.get("priority", "mixed");
  const double deadline_ms = cli.get_double("deadline-ms", 0.0);
  const bool inject = cli.get_bool("inject-faults", false);
  const auto fault_seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  const int shards = cli.get_int("shards", 2);
  const std::string tenant = cli.get("tenant", "default");
  const double quota_rps = cli.get_double("quota-rps", 0.0);
  const int kill_after_ms = cli.get_int("kill-shard-after-ms", 0);

  auto registry = std::make_shared<serve::ModelRegistry>();
  populate_registry(*registry);
  const auto convnet = registry->find("convnet");
  const auto mlp = registry->find("mlp");

  constexpr int kProducers = 4;
  constexpr int kRequestsPerProducer = 24;
  constexpr int kTotal = kProducers * kRequestsPerProducer;

  serve::RouterOptions opts;
  opts.shards = shards;
  opts.shard.max_batch = 8;
  opts.shard.batch_deadline = std::chrono::microseconds(400);
  opts.shard.queue_depth = 32;
  opts.shard.workers = 1;
  opts.shard.engine.jobs = 1;
  opts.probe_interval = std::chrono::milliseconds(5);
  opts.probation_backoff = std::chrono::milliseconds(2);
  if (quota_rps > 0.0) {
    opts.tenant_quotas[tenant] = serve::TenantQuota{quota_rps, 8.0};
  }
  if (inject) {
    opts.shard.faults.seed = fault_seed;
    opts.shard.faults.engine_failure_prob = 0.20;
    opts.shard.faults.shard_kill_prob = 0.05;
    opts.shard.faults.shard_stall_prob = 0.10;
    opts.shard.faults.shard_stall = std::chrono::microseconds(2000);
    opts.shard.faults.probe_failure_prob = 0.10;
    opts.shard.faults.snapshot_corrupt_prob = 0.10;
  }

  struct Outcomes {
    int completed = 0;
    int quota_rejected = 0;
    int shed = 0;
    int timed_out = 0;
    int failed = 0;
  };
  Outcomes totals;
  std::mutex totals_mutex;
  serve::RouterStats stats;
  std::vector<serve::HealthTransition> transitions;
  const auto t0 = std::chrono::steady_clock::now();
  {
    serve::ShardRouter router(registry, opts);
    const std::vector<int> rank = router.rank_shards("convnet", tenant);
    std::printf("sharded serving: %d shards, tenant '%s' (primary shard %d)\n",
                shards, tenant.c_str(), rank.front());

    std::thread killer;
    if (kill_after_ms > 0) {
      killer = std::thread([&router, &rank, kill_after_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
        std::printf("  !! killing shard %d\n", rank.front());
        router.kill_shard(rank.front());
      });
    }

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        Outcomes local;
        for (int i = 0; i < kRequestsPerProducer; ++i) {
          const auto model = (p + i) % 2 == 0 ? convnet : mlp;
          const int id = p * kRequestsPerProducer + i;
          serve::RouteOptions ropts;
          ropts.tenant = tenant;
          ropts.priority = priority_for(priority_mode, id);
          if (deadline_ms > 0.0) {
            ropts.deadline =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::duration<double, std::milli>(deadline_ms));
          }
          try {
            (void)router.submit(model->name,
                                model->make_input(/*seed=*/77, /*stream=*/id),
                                ropts);
            ++local.completed;
          } catch (const TenantQuotaError&) {
            ++local.quota_rejected;
          } catch (const OverloadError&) {
            ++local.shed;
          } catch (const DeadlineExceededError&) {
            ++local.timed_out;
          } catch (const std::exception&) {
            ++local.failed;
          }
        }
        const std::lock_guard<std::mutex> lock(totals_mutex);
        totals.completed += local.completed;
        totals.quota_rejected += local.quota_rejected;
        totals.shed += local.shed;
        totals.timed_out += local.timed_out;
        totals.failed += local.failed;
      });
    }
    for (auto& t : producers) t.join();
    if (killer.joinable()) killer.join();

    // Byte-identity spot check through the (possibly fault-ridden) router:
    // whichever shard serves it, the output must match a solo run.
    sim::FunctionalLoomEngine solo(opts.shard.engine);
    for (const auto& model : {convnet, mlp}) {
      const nn::Tensor input = model->make_input(77, 2);
      const auto solo_run =
          solo.run_network(model->net, input, model->weights);
      try {
        const serve::InferenceResult res =
            router.submit(model->name, input, serve::RouteOptions{});
        if (!(res.output == solo_run.output)) {
          std::printf("FAIL: sharded output diverged for %s\n",
                      model->name.c_str());
          return 1;
        }
      } catch (const std::exception&) {
        // Spot check is best-effort under injected faults.
      }
    }

    stats = router.stats();
    transitions = router.transitions();
    router.stop();
  }
  const std::chrono::duration<double> served =
      std::chrono::steady_clock::now() - t0;

  std::printf("served %d requests from %d producers over 2 models\n", kTotal,
              kProducers);
  std::printf(
      "  submitted %llu = completed %llu + quota_rejected %llu + shed %llu "
      "+ timed_out %llu + failed %llu\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.quota_rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.timed_out),
      static_cast<unsigned long long>(stats.failed));
  std::printf("  failovers %llu  forced recoveries %llu\n",
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.forced_recoveries));
  if (stats.recovery_ms.count() > 0) {
    std::printf("  recovery to healthy: mean %.1f ms over %llu recoveries\n",
                stats.recovery_ms.mean(),
                static_cast<unsigned long long>(stats.recovery_ms.count()));
  }
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    const serve::ShardStats& ss = stats.shards[s];
    std::printf(
        "  shard %zu: %-9s %s  routed %4llu  ok %4llu  failed %3llu  "
        "kills %llu  restarts %llu  err-ewma %.2f  lat-ewma %.2f ms\n",
        s, serve::health_name(ss.health), ss.alive ? "alive" : "DEAD ",
        static_cast<unsigned long long>(ss.routed),
        static_cast<unsigned long long>(ss.completed),
        static_cast<unsigned long long>(ss.failed),
        static_cast<unsigned long long>(ss.kills),
        static_cast<unsigned long long>(ss.restarts), ss.error_ewma,
        ss.latency_ewma_ms);
  }
  if (!transitions.empty()) {
    std::printf("  health transitions:\n");
    for (const serve::HealthTransition& tr : transitions) {
      std::printf("    %8.1f ms  shard %d  %s -> %s\n",
                  std::chrono::duration<double, std::milli>(tr.at - t0)
                      .count(),
                  tr.shard, serve::health_name(tr.from),
                  serve::health_name(tr.to));
    }
  }
  std::printf("  latency p50 %.1f us  p99 %.1f us  (%.3f s wall)\n",
              1e-3 * stats.latency_ns.p50(), 1e-3 * stats.latency_ns.p99(),
              served.count());
  std::printf("  outputs byte-identical to solo runs\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const core::Options cli(argc, argv);
  if (cli.get_int("shards", 0) > 0) return run_sharded(cli);
  const std::string priority_mode = cli.get("priority", "mixed");
  const double deadline_ms = cli.get_double("deadline-ms", 0.0);
  const bool inject = cli.get_bool("inject-faults", false);
  const auto fault_seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));

  serve::ModelRegistry registry;
  populate_registry(registry);
  const auto convnet = registry.find("convnet");
  const auto mlp = registry.find("mlp");

  constexpr int kProducers = 4;
  constexpr int kRequestsPerProducer = 24;
  constexpr int kTotal = kProducers * kRequestsPerProducer;

  serve::ServeOptions opts;
  opts.max_batch = 8;
  opts.batch_deadline = std::chrono::microseconds(400);
  opts.queue_depth = 32;
  opts.workers = 1;
  opts.engine.jobs = 1;
  if (inject) {
    opts.faults.seed = fault_seed;
    opts.faults.engine_failure_prob = 0.20;
    opts.faults.batcher_delay_prob = 0.10;
    opts.faults.batcher_delay = std::chrono::microseconds(500);
    opts.faults.queue_spike_prob = 0.10;
    opts.faults.queue_spike_depth = opts.queue_depth;
  }

  // ---- Serve interleaved traffic from several producers -------------------
  std::vector<std::future<serve::InferenceResult>> futures(
      static_cast<std::size_t>(kTotal));
  std::vector<char> admitted(static_cast<std::size_t>(kTotal), 0);
  const auto t0 = std::chrono::steady_clock::now();
  serve::ServerStats stats;
  std::uint64_t injected_engine_faults = 0;
  {
    serve::InferenceServer server(registry, opts);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kRequestsPerProducer; ++i) {
          const auto model = (p + i) % 2 == 0 ? convnet : mlp;
          const int id = p * kRequestsPerProducer + i;
          serve::SubmitOptions sopts;
          sopts.priority = priority_for(priority_mode, id);
          if (deadline_ms > 0.0) {
            sopts.deadline = std::chrono::duration_cast<
                std::chrono::nanoseconds>(
                std::chrono::duration<double, std::milli>(deadline_ms));
          }
          try {
            futures[static_cast<std::size_t>(id)] = server.submit(
                model, model->make_input(/*seed=*/77, /*stream=*/id), sopts);
            admitted[static_cast<std::size_t>(id)] = 1;
          } catch (const OverloadError&) {
            // Shed at admission (batch / best-effort under pressure).
          }
        }
      });
    }
    for (auto& t : producers) t.join();
    for (int id = 0; id < kTotal; ++id) {
      if (admitted[static_cast<std::size_t>(id)]) {
        futures[static_cast<std::size_t>(id)].wait();
      }
    }
    stats = server.stats();
    injected_engine_faults = server.fault_injector().engine_failures_injected();
  }  // drain + join
  const std::chrono::duration<double> served =
      std::chrono::steady_clock::now() - t0;

  int completed = 0;
  int degraded_ok = 0;
  for (int id = 0; id < kTotal; ++id) {
    if (!admitted[static_cast<std::size_t>(id)]) continue;
    try {
      const serve::InferenceResult res =
          futures[static_cast<std::size_t>(id)].get();
      ++completed;
      if (res.via_fallback || res.engine_attempts > 1) ++degraded_ok;
    } catch (const std::exception&) {
      // DeadlineExceededError / OverloadError / TransientEngineError —
      // already counted in ServerStats below.
    }
  }

  // ---- The same traffic, one request at a time ----------------------------
  // Identical (model, input) pairs as the served run: id = p * 24 + i was
  // submitted for (p + i) % 2.
  const auto t1 = std::chrono::steady_clock::now();
  sim::FunctionalLoomEngine solo(opts.engine);
  for (int id = 0; id < kTotal; ++id) {
    const int p = id / kRequestsPerProducer;
    const int i = id % kRequestsPerProducer;
    const auto& model = (p + i) % 2 == 0 ? *convnet : *mlp;
    (void)solo.run_network(model.net, model.make_input(77, id), model.weights);
  }
  const std::chrono::duration<double> sequential =
      std::chrono::steady_clock::now() - t1;

  // ---- Spot-check byte-identity on one request per model ------------------
  // A fault-free server instance: degradation must never change outputs.
  for (const auto& model : {convnet, mlp}) {
    const nn::Tensor input = model->make_input(77, 2);
    const auto solo_run = solo.run_network(model->net, input, model->weights);
    serve::ServeOptions check_opts = opts;
    check_opts.faults = serve::FaultPlan{};
    serve::InferenceServer checker(registry, check_opts);
    const auto result = checker.submit(model, input).get();
    if (!(result.output == solo_run.output)) {
      std::printf("FAIL: batched output diverged for %s\n",
                  model->name.c_str());
      return 1;
    }
  }

  std::printf("served %d requests from %d producers over 2 models\n", kTotal,
              kProducers);
  std::printf("  batches: %llu  (mean batch %.2f, peak %llu)\n",
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch(),
              static_cast<unsigned long long>(stats.peak_batch));
  std::printf("  peak queue depth: %llu of %zu\n",
              static_cast<unsigned long long>(stats.peak_queue_depth),
              opts.queue_depth);
  std::printf(
      "  completed %llu  rejected %llu  shed %llu  timed out %llu  "
      "failed %llu\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.timed_out),
      static_cast<unsigned long long>(stats.failed));
  if (inject) {
    std::printf(
        "  faults: %llu engine failures injected -> %llu retries, "
        "%llu scalar fallbacks (%d degraded requests still exact)\n",
        static_cast<unsigned long long>(injected_engine_faults),
        static_cast<unsigned long long>(stats.retries),
        static_cast<unsigned long long>(stats.fallbacks), degraded_ok);
  }
  for (int c = 0; c < serve::kPriorityClasses; ++c) {
    const serve::ClassStats& cs =
        stats.by_class[static_cast<std::size_t>(c)];
    if (cs.submitted == 0 && cs.rejected == 0) continue;
    std::printf(
        "  %-11s: %3llu ok  latency p50 %7.1f us  p99 %7.1f us  "
        "(queue-wait p50 %.1f us)\n",
        serve::priority_name(static_cast<serve::Priority>(c)),
        static_cast<unsigned long long>(cs.completed),
        1e-3 * cs.latency_ns.p50(), 1e-3 * cs.latency_ns.p99(),
        1e-3 * cs.queue_wait_ns.p50());
  }
  std::printf("  batched:    %7.1f img/s  (%.3f s wall)\n",
              completed / served.count(), served.count());
  std::printf("  sequential: %7.1f img/s  (%.3f s wall)\n",
              kTotal / sequential.count(), sequential.count());
  std::printf("  throughput: %.2fx, outputs byte-identical to solo runs\n",
              (completed / served.count()) / (kTotal / sequential.count()));
  return 0;
}
