// Overload + fault-injection stress for the inference server: more producer
// threads than workers, every degradation path armed (injected engine
// failures at 20%, occasional fallback failures, batcher stalls, phantom
// queue-pressure spikes), randomized priorities, deadlines and submission
// modes. Invariants, per seed:
//   - no deadlock and no lost future: every admitted request's future
//     becomes ready, every admission rejection throws OverloadError;
//   - every request that succeeds returns output byte-identical to a solo
//     run_network pass (degradation may change *how* a batch ran — bit
//     sliced, retried, scalar fallback — never *what* it computed);
//   - ServerStats exactly account for every request:
//     submitted == completed + shed + timed_out + failed, per class and in
//     aggregate, and the per-class latency histograms hold exactly the
//     completed requests;
//   - zero worker-thread crashes (drain-then-join shutdown completes).
//
// Replay one failing iteration with LOOM_SERVE_FAULT_SEED=<seed> (the
// LOOM_BATCH_PROP_SEED convention).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/server.hpp"
#include "sim/functional.hpp"

namespace loom::serve {
namespace {

constexpr std::uint64_t kInputSeed = 77;
constexpr int kProducers = 4;
constexpr int kPerProducer = 16;
constexpr int kWorkers = 2;

void populate(ModelRegistry& registry) {
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
    registry.add_synthetic("convnet", std::move(net), p, /*seed=*/31);
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
    registry.add_synthetic("mlp", std::move(net), p, /*seed=*/32);
  }
}

/// Solo ground truth: the byte-identity reference for every server output.
std::map<std::pair<std::string, int>, nn::Tensor> solo_outputs(
    const ModelRegistry& registry, int streams) {
  std::map<std::pair<std::string, int>, nn::Tensor> out;
  for (const std::string& name : registry.names()) {
    const auto model = registry.find(name);
    sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
    for (int s = 0; s < streams; ++s) {
      out.emplace(std::make_pair(name, s),
                  engine
                      .run_network(model->net,
                                   model->make_input(kInputSeed, s),
                                   model->weights)
                      .output);
    }
  }
  return out;
}

std::vector<std::uint64_t> iteration_seeds(std::uint64_t base, int count) {
  if (const char* env = std::getenv("LOOM_SERVE_FAULT_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

struct Tagged {
  std::string model;
  int stream = 0;
  std::future<InferenceResult> future;
};

struct Observed {
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;       // evicted after admission (OverloadError)
  std::uint64_t timed_out = 0;  // DeadlineExceededError
  std::uint64_t failed = 0;     // TransientEngineError and anything else
  std::uint64_t fallback_results = 0;
};

TEST(ServeFaultStress, OverloadWithInjectedFaultsKeepsEveryInvariant) {
  ModelRegistry registry;
  populate(registry);
  const auto expected = solo_outputs(registry, kPerProducer);

  for (const std::uint64_t seed : iteration_seeds(0xFA017, 3)) {
    SCOPED_TRACE("LOOM_SERVE_FAULT_SEED=" + std::to_string(seed));

    ServeOptions opts;
    opts.max_batch = 4;
    opts.batch_deadline = std::chrono::microseconds(200);
    opts.queue_depth = 8;
    opts.shed_watermark = 0.5;
    opts.workers = kWorkers;
    opts.engine_retries = 1;
    opts.retry_backoff = std::chrono::microseconds(50);
    opts.engine.jobs = 1;
    opts.faults.seed = seed;
    opts.faults.engine_failure_prob = 0.20;
    opts.faults.fallback_failure_prob = 0.05;
    opts.faults.batcher_delay_prob = 0.10;
    opts.faults.batcher_delay = std::chrono::microseconds(500);
    opts.faults.queue_spike_prob = 0.10;
    opts.faults.queue_spike_depth = 8;

    std::vector<Tagged> admitted;
    std::mutex admitted_mutex;
    std::uint64_t rejected_observed = 0;
    ServerStats stats;
    std::uint64_t injected_engine_failures = 0;

    {
      InferenceServer server(registry, opts);
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p, seed] {
          SequentialRng rng(seed, static_cast<std::uint64_t>(p) + 100);
          for (int i = 0; i < kPerProducer; ++i) {
            const std::string name =
                rng.next_below(2) == 0 ? "convnet" : "mlp";
            const auto model = registry.find(name);
            SubmitOptions sopts;
            sopts.priority = static_cast<Priority>(rng.next_below(3));
            switch (rng.next_below(3)) {
              case 0: break;  // no deadline
              case 1: sopts.deadline = std::chrono::milliseconds(500); break;
              case 2: sopts.deadline = std::chrono::microseconds(200); break;
            }
            const bool bounded = rng.next_below(2) == 0;
            try {
              auto fut =
                  bounded
                      ? server.try_submit(model,
                                          model->make_input(kInputSeed, i),
                                          std::chrono::milliseconds(2), sopts)
                      : server.submit(model, model->make_input(kInputSeed, i),
                                      sopts);
              const std::lock_guard<std::mutex> lock(admitted_mutex);
              admitted.push_back(Tagged{name, i, std::move(fut)});
            } catch (const OverloadError&) {
              const std::lock_guard<std::mutex> lock(admitted_mutex);
              ++rejected_observed;
            }
            // ShutdownError / ConfigError would escape and fail the test:
            // neither may occur while the server is live.
          }
        });
      }
      for (auto& t : producers) t.join();

      // No lost future, no deadlock: every admitted request resolves.
      for (Tagged& t : admitted) {
        ASSERT_EQ(t.future.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "lost future for " << t.model << " stream " << t.stream;
      }
      server.stop();  // drain-then-join completes: no crashed worker
      stats = server.stats();
      injected_engine_failures =
          server.fault_injector().engine_failures_injected();
    }

    Observed obs;
    for (Tagged& t : admitted) {
      try {
        InferenceResult res = t.future.get();
        // Byte identity survives every degradation path.
        EXPECT_EQ(res.output, expected.at({t.model, t.stream}))
            << t.model << " stream " << t.stream
            << (res.via_fallback ? " (scalar fallback)" : "");
        ++obs.completed;
        if (res.via_fallback) ++obs.fallback_results;
      } catch (const DeadlineExceededError&) {
        ++obs.timed_out;
      } catch (const OverloadError&) {
        ++obs.shed;
      } catch (const Error&) {
        ++obs.failed;
      }
    }

    // ---- Exact accounting --------------------------------------------------
    EXPECT_EQ(stats.submitted, admitted.size());
    EXPECT_EQ(stats.rejected, rejected_observed);
    EXPECT_EQ(stats.submitted + stats.rejected,
              static_cast<std::uint64_t>(kProducers) * kPerProducer);
    EXPECT_EQ(stats.completed, obs.completed);
    EXPECT_EQ(stats.shed, obs.shed);
    EXPECT_EQ(stats.timed_out, obs.timed_out);
    EXPECT_EQ(stats.failed, obs.failed);
    EXPECT_EQ(stats.submitted,
              stats.completed + stats.shed + stats.timed_out + stats.failed);

    std::uint64_t class_submitted = 0;
    for (int c = 0; c < kPriorityClasses; ++c) {
      const ClassStats& cs = stats.by_class[static_cast<std::size_t>(c)];
      EXPECT_EQ(cs.submitted,
                cs.completed + cs.shed + cs.timed_out + cs.failed)
          << "class " << priority_name(static_cast<Priority>(c));
      // The latency histograms hold exactly the completed requests.
      EXPECT_EQ(cs.latency_ns.count(), cs.completed);
      EXPECT_EQ(cs.queue_wait_ns.count(), cs.completed);
      EXPECT_EQ(cs.run_time_ns.count(), cs.completed);
      class_submitted += cs.submitted;
    }
    EXPECT_EQ(class_submitted, stats.submitted);

    // The run exercised the machinery it claims to: work completed, and at
    // 20% injected engine failure over this many batches some must fire.
    EXPECT_GT(stats.completed, 0u);
    EXPECT_GT(injected_engine_failures, 0u);
    EXPECT_LE(stats.peak_queue_depth, opts.queue_depth);
  }
}

// ---- Fast-kernel degradation ----------------------------------------------
// The primary engine pinned to the dense-GEMM kernel, injected failures landing
// straight on the scalar-oracle fallback (no retries): every completed
// request must be byte-identical to a solo run regardless of which engine
// served it, and ServerStats::backend_layer_runs must show *both* kernels
// doing real work — the observable trace that degradation crossed backends,
// not just engines.

TEST(ServeFaultStress, GemmPrimaryDegradesToScalarByteIdentically) {
  ModelRegistry registry;
  populate(registry);
  const auto expected = solo_outputs(registry, kPerProducer);

  ServeOptions opts;
  opts.max_batch = 4;
  opts.batch_deadline = std::chrono::microseconds(200);
  opts.queue_depth = 256;  // no shedding: this test is about degradation
  opts.workers = kWorkers;
  opts.engine_retries = 0;  // every injected failure lands on the fallback
  opts.engine.jobs = 1;
  opts.engine.backend = "gemm";
  opts.faults.seed = 0xB10F;
  opts.faults.engine_failure_prob = 0.35;
  opts.faults.fallback_failure_prob = 0.0;

  std::vector<Tagged> admitted;
  ServerStats stats;
  {
    InferenceServer server(registry, opts);
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& name : registry.names()) {
        const auto model = registry.find(name);
        for (int s = 0; s < kPerProducer; ++s) {
          admitted.push_back(Tagged{
              name, s,
              server.submit(model, model->make_input(kInputSeed, s), {})});
        }
      }
    }
    for (Tagged& t : admitted) {
      ASSERT_EQ(t.future.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "lost future for " << t.model << " stream " << t.stream;
    }
    server.stop();
    stats = server.stats();
  }

  std::uint64_t fallback_results = 0;
  for (Tagged& t : admitted) {
    InferenceResult res = t.future.get();  // no deadline, no fallback faults:
                                           // nothing may throw
    EXPECT_EQ(res.output, expected.at({t.model, t.stream}))
        << t.model << " stream " << t.stream
        << (res.via_fallback ? " (scalar fallback)" : " (gemm)");
    if (res.via_fallback) ++fallback_results;
  }

  EXPECT_EQ(stats.completed, admitted.size());
  EXPECT_GT(stats.fallbacks, 0u);
  EXPECT_GT(fallback_results, 0u);

  // Both kernels served weighted layers, and nothing else did: the primary
  // resolves to "gemm", the fallback engine is the scalar oracle.
  ASSERT_TRUE(stats.backend_layer_runs.contains("gemm"));
  ASSERT_TRUE(stats.backend_layer_runs.contains("scalar"));
  EXPECT_GT(stats.backend_layer_runs.at("gemm"), 0u);
  EXPECT_GT(stats.backend_layer_runs.at("scalar"), 0u);
  EXPECT_EQ(stats.backend_layer_runs.size(), 2u);
}

// ---- Fault injector determinism -------------------------------------------
// The k-th decision at a site is a pure function of (seed, site, k): two
// injectors with the same plan agree draw for draw, which is what makes
// LOOM_SERVE_FAULT_SEED replays faithful.

TEST(FaultInjector, DecisionStreamsAreSeedDeterministic) {
  FaultPlan plan;
  plan.seed = 0xF00D;
  plan.engine_failure_prob = 0.3;
  plan.fallback_failure_prob = 0.1;
  plan.batcher_delay_prob = 0.5;
  plan.queue_spike_prob = 0.2;
  plan.queue_spike_depth = 7;

  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.should_fail_engine(), b.should_fail_engine());
    EXPECT_EQ(a.should_fail_fallback(), b.should_fail_fallback());
    EXPECT_EQ(a.should_delay_batcher(), b.should_delay_batcher());
    EXPECT_EQ(a.queue_spike(), b.queue_spike());
  }
  EXPECT_EQ(a.engine_failures_injected(), b.engine_failures_injected());
  EXPECT_EQ(a.fallback_failures_injected(), b.fallback_failures_injected());
  EXPECT_EQ(a.batcher_delays_injected(), b.batcher_delays_injected());
  EXPECT_EQ(a.queue_spikes_injected(), b.queue_spikes_injected());

  // Rates land near their probabilities (loose 3-sigma-ish bounds), and a
  // fired spike always reports the configured depth.
  EXPECT_NEAR(static_cast<double>(a.engine_failures_injected()) / 2000.0, 0.3,
              0.05);
  EXPECT_NEAR(static_cast<double>(a.batcher_delays_injected()) / 2000.0, 0.5,
              0.05);
  FaultInjector c(plan);
  for (int i = 0; i < 100; ++i) {
    const std::size_t spike = c.queue_spike();
    EXPECT_TRUE(spike == 0 || spike == plan.queue_spike_depth);
  }
}

TEST(FaultInjector, DisabledPlanNeverFires) {
  FaultInjector off;
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(off.should_fail_engine());
    EXPECT_FALSE(off.should_fail_fallback());
    EXPECT_FALSE(off.should_delay_batcher());
    EXPECT_EQ(off.queue_spike(), 0u);
  }
  EXPECT_EQ(off.engine_failures_injected(), 0u);
}

}  // namespace
}  // namespace loom::serve
