// Inference server: deterministic concurrency stress tests. N producer
// threads submit interleaved requests across two models (different
// networks *and* different precision profiles); every per-request output
// must be byte-identical to a solo run_network pass, backpressure on a full
// queue must not deadlock, and shutdown with in-flight work must drain
// cleanly. Server outputs are also pinned with a golden FNV digest
// (tests/golden.hpp) so engine drift cannot hide behind the identity
// checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "golden.hpp"
#include "serve/server.hpp"
#include "sim/functional.hpp"

namespace loom::serve {
namespace {

constexpr std::uint64_t kInputSeed = 77;

/// Two models: a conv stack and an FC tail, with distinct profiles.
void populate(ModelRegistry& registry) {
  {
    nn::Network net("convnet", nn::Shape3{6, 12, 12});
    net.add_conv("c1", 12, 3, 1, 1).precision_group = 0;
    net.add_pool("p1", nn::PoolKind::kMax, 2, 2);
    net.add_conv("c2", 8, 3, 1, 0).precision_group = 1;
    net.add_fc("logits", 9);
    quant::PrecisionProfile p;
    p.network = "convnet";
    p.conv_act = {7, 6};
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

/// Solo ground truth for (model, stream): one request at a time through a
/// fresh engine — the byte-identity reference for every server output.
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

TEST(ServeStress, InterleavedProducersAcrossModelsAreByteIdentical) {
  ModelRegistry registry;
  populate(registry);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 12;
  const auto expected = solo_outputs(registry, kPerProducer);

  ServeOptions opts;
  opts.max_batch = 5;
  opts.batch_deadline = std::chrono::microseconds(500);
  opts.queue_depth = 16;
  opts.workers = 2;
  opts.engine.jobs = 1;
  InferenceServer server(registry, opts);

  struct Tagged {
    std::string model;
    int stream;
    std::future<InferenceResult> future;
  };
  std::vector<std::vector<Tagged>> per_producer(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&registry, &server, &per_producer, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::string name = (p + i) % 2 == 0 ? "convnet" : "mlp";
        const auto model = registry.find(name);
        per_producer[p].push_back(
            Tagged{name, i,
                   server.submit(model, model->make_input(kInputSeed, i))});
      }
    });
  }
  for (auto& t : producers) t.join();

  for (auto& tagged : per_producer) {
    for (Tagged& t : tagged) {
      InferenceResult res = t.future.get();
      EXPECT_EQ(res.output, expected.at({t.model, t.stream}))
          << t.model << " stream " << t.stream;
      EXPECT_GE(res.batch_size, 1);
      EXPECT_LE(res.batch_size, opts.max_batch);
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.completed, kProducers * kPerProducer);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_LE(stats.peak_queue_depth, opts.queue_depth);
}

TEST(ServeStress, QueueFullBackpressureDoesNotDeadlock) {
  ModelRegistry registry;
  populate(registry);
  const auto expected = solo_outputs(registry, 8);

  ServeOptions opts;
  opts.max_batch = 3;
  opts.batch_deadline = std::chrono::microseconds(0);  // flush immediately
  opts.queue_depth = 2;  // producers outpace this by far
  opts.workers = 1;
  opts.engine.jobs = 1;
  InferenceServer server(registry, opts);

  constexpr int kProducers = 3;
  std::vector<std::vector<std::future<InferenceResult>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&registry, &server, &futures, p] {
      const auto model = registry.find(p % 2 == 0 ? "mlp" : "convnet");
      for (int i = 0; i < 8; ++i) {
        futures[p].push_back(
            server.submit(model, model->make_input(kInputSeed, i)));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) {
    const std::string name = p % 2 == 0 ? "mlp" : "convnet";
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(futures[p][static_cast<std::size_t>(i)].get().output,
                expected.at({name, i}));
    }
  }
  // The bounded queue never overfilled: backpressure, not buffering.
  EXPECT_LE(server.stats().peak_queue_depth, 2u);
}

TEST(ServeStress, CleanShutdownDrainsInFlightWork) {
  ModelRegistry registry;
  populate(registry);
  const auto expected = solo_outputs(registry, 10);

  std::vector<std::future<InferenceResult>> futures;
  {
    ServeOptions opts;
    opts.max_batch = 4;
    opts.batch_deadline = std::chrono::microseconds(200);
    opts.queue_depth = 32;
    opts.workers = 2;
    opts.engine.jobs = 1;
    InferenceServer server(registry, opts);
    const auto model = registry.find("convnet");
    for (int i = 0; i < 10; ++i) {
      futures.push_back(server.submit(model, model->make_input(kInputSeed, i)));
    }
    // Destructor: refuse new work, run everything queued, join.
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().output,
              expected.at({"convnet", i}));
  }
}

TEST(Serve, SubmissionErrors) {
  ModelRegistry registry;
  populate(registry);
  ServeOptions opts;
  opts.engine.jobs = 1;
  InferenceServer server(registry, opts);

  EXPECT_THROW((void)server.submit("no-such-model", nn::Tensor{}), ConfigError);
  // Wrong input volume for the model.
  EXPECT_THROW((void)server.submit("convnet",
                                   nn::Tensor(nn::Shape{3, 2, 2})),
               ConfigError);

  const auto model = registry.find("mlp");
  auto ok = server.submit(model, model->make_input(kInputSeed, 0));
  server.stop();
  EXPECT_NO_THROW((void)ok.get());  // in-flight work drained by stop()
  // Late submitters are refused for being late, not misconfigured: the
  // exception type is pinned so it cannot regress to ConfigError.
  EXPECT_THROW((void)server.submit(model, model->make_input(kInputSeed, 1)),
               ShutdownError);
  EXPECT_THROW((void)server.try_submit(model, model->make_input(kInputSeed, 1),
                                       std::chrono::milliseconds(5)),
               ShutdownError);
}

TEST(Serve, MisshapenInputIsRefusedAloneAtSubmit) {
  // A conv model's input must have the first layer's (c,h,w) shape, as the
  // engine requires; a flattened tensor of the right volume is refused at
  // submit, so it never joins (and fails) a batch of valid requests. An FC
  // model flattens its input, so a flattened request is valid there.
  ModelRegistry registry;
  populate(registry);
  const auto expected = solo_outputs(registry, 2);
  ServeOptions opts;
  opts.max_batch = 4;
  opts.batch_deadline = std::chrono::milliseconds(50);
  opts.workers = 1;
  opts.engine.jobs = 1;
  InferenceServer server(registry, opts);

  const auto flattened = [](const nn::Tensor& t) {
    nn::Tensor flat(nn::Shape{t.elements()});
    std::copy(t.data().begin(), t.data().end(), flat.data().begin());
    return flat;
  };
  const auto conv = registry.find("convnet");
  auto first = server.submit(conv, conv->make_input(kInputSeed, 0));
  EXPECT_THROW(
      (void)server.submit(conv, flattened(conv->make_input(kInputSeed, 1))),
      ConfigError);
  auto second = server.submit(conv, conv->make_input(kInputSeed, 1));
  EXPECT_EQ(first.get().output, expected.at({"convnet", 0}));
  EXPECT_EQ(second.get().output, expected.at({"convnet", 1}));

  const auto mlp = registry.find("mlp");
  EXPECT_EQ(server.submit(mlp, flattened(mlp->make_input(kInputSeed, 0)))
                .get()
                .output,
            expected.at({"mlp", 0}));
}

// ---- Robustness: admission control, deadlines, degradation ----------------

TEST(ServeRobustness, BestEffortShedsAtWatermarkUnderInjectedPressure) {
  ModelRegistry registry;
  populate(registry);
  ServeOptions opts;
  opts.queue_depth = 8;
  opts.shed_watermark = 0.5;  // best-effort sheds at 4 pending
  opts.engine.jobs = 1;
  // Every admission decision observes a phantom full queue.
  opts.faults.seed = 9;
  opts.faults.queue_spike_prob = 1.0;
  opts.faults.queue_spike_depth = 8;
  InferenceServer server(registry, opts);

  const auto model = registry.find("mlp");
  // Best-effort: pressure >= watermark at admission -> OverloadError.
  EXPECT_THROW((void)server.submit(model, model->make_input(kInputSeed, 0),
                                   {.priority = Priority::kBestEffort}),
               OverloadError);
  // Batch: sheds only at a (phantom) full queue — which the spike fakes.
  EXPECT_THROW((void)server.submit(model, model->make_input(kInputSeed, 0),
                                   {.priority = Priority::kBatch}),
               OverloadError);
  // Interactive: never shed at admission; spikes cannot block it forever.
  auto fut = server.submit(model, model->make_input(kInputSeed, 0));
  EXPECT_NO_THROW((void)fut.get());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.for_priority(Priority::kBestEffort).rejected, 1u);
  EXPECT_EQ(stats.for_priority(Priority::kBatch).rejected, 1u);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_GE(server.fault_injector().queue_spikes_injected(), 2u);
}

TEST(ServeRobustness, TrySubmitBoundedWaitShedsInsteadOfBlocking) {
  ModelRegistry registry;
  populate(registry);
  ServeOptions opts;
  opts.queue_depth = 4;
  opts.engine.jobs = 1;
  opts.faults.seed = 10;
  opts.faults.queue_spike_prob = 1.0;  // every admission sees a full queue
  opts.faults.queue_spike_depth = 4;
  InferenceServer server(registry, opts);

  const auto model = registry.find("mlp");
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)server.try_submit(model, model->make_input(kInputSeed, 0),
                                       std::chrono::milliseconds(20),
                                       {.priority = Priority::kBatch}),
               OverloadError);
  const auto waited = std::chrono::steady_clock::now() - t0;
  // Bounded: it waited (roughly the timeout), then shed instead of hanging.
  EXPECT_GE(waited, std::chrono::milliseconds(15));
  EXPECT_LT(waited, std::chrono::seconds(15));
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(ServeRobustness, DeadlineExpiredRequestsResolveAsDeadlineExceeded) {
  ModelRegistry registry;
  populate(registry);
  ServeOptions opts;
  opts.max_batch = 4;
  // Hold batches open far longer than the request deadlines: expiry must
  // come from the deadline cap, not the batch deadline elapsing first.
  opts.batch_deadline = std::chrono::microseconds(50'000);
  opts.engine.jobs = 1;
  InferenceServer server(registry, opts);

  const auto model = registry.find("convnet");
  // A generous deadline completes; a 1ns deadline cannot.
  auto ok = server.submit(model, model->make_input(kInputSeed, 0),
                          {.deadline = std::chrono::seconds(30)});
  auto doomed = server.submit(model, model->make_input(kInputSeed, 1),
                              {.priority = Priority::kBatch,
                               .deadline = std::chrono::nanoseconds(1)});
  EXPECT_NO_THROW((void)ok.get());
  EXPECT_THROW((void)doomed.get(), DeadlineExceededError);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.for_priority(Priority::kBatch).timed_out, 1u);
  // Satellite: queue_wait/run_time aggregate into per-class histograms.
  const ClassStats& inter = stats.for_priority(Priority::kInteractive);
  EXPECT_EQ(inter.latency_ns.count(), 1u);
  EXPECT_EQ(inter.queue_wait_ns.count(), 1u);
  EXPECT_EQ(inter.run_time_ns.count(), 1u);
  EXPECT_GT(inter.latency_ns.p50(), 0.0);
  EXPECT_GE(inter.latency_ns.p99(), inter.latency_ns.p50());
}

TEST(ServeRobustness, InteractiveArrivalEvictsQueuedBestEffortWhenFull) {
  ModelRegistry registry;
  populate(registry);
  ServeOptions opts;
  opts.max_batch = 1;
  opts.batch_deadline = std::chrono::microseconds(0);
  opts.queue_depth = 2;
  opts.shed_watermark = 1.0;  // isolate eviction from watermark shedding
  opts.engine.jobs = 1;
  // Stall every batch so the queue reliably fills behind the worker.
  opts.faults.seed = 11;
  opts.faults.batcher_delay_prob = 1.0;
  opts.faults.batcher_delay = std::chrono::microseconds(150'000);
  InferenceServer server(registry, opts);

  const auto model = registry.find("mlp");
  // Warm-up request; wait until the worker has popped it and is stalled.
  auto warm = server.submit(model, model->make_input(kInputSeed, 0));
  while (server.fault_injector().batcher_delays_injected() == 0) {
    std::this_thread::yield();
  }
  // Fill the queue with best-effort work, then submit interactive: the
  // newest best-effort request is evicted to make room.
  auto be0 = server.submit(model, model->make_input(kInputSeed, 1),
                           {.priority = Priority::kBestEffort});
  auto be1 = server.submit(model, model->make_input(kInputSeed, 2),
                           {.priority = Priority::kBestEffort});
  auto inter = server.submit(model, model->make_input(kInputSeed, 3));

  EXPECT_THROW((void)be1.get(), OverloadError);  // evicted (newest)
  EXPECT_NO_THROW((void)inter.get());
  EXPECT_NO_THROW((void)be0.get());
  EXPECT_NO_THROW((void)warm.get());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.for_priority(Priority::kBestEffort).shed, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(ServeRobustness, EngineFaultsFallBackToScalarOracleByteIdentically) {
  ModelRegistry registry;
  populate(registry);
  const auto expected = solo_outputs(registry, 6);

  ServeOptions opts;
  opts.max_batch = 3;
  opts.engine.jobs = 1;
  opts.engine_retries = 1;
  opts.retry_backoff = std::chrono::microseconds(50);
  // Every primary attempt (first try + retry) fails; every batch must
  // degrade to the scalar oracle and still return byte-identical outputs.
  opts.faults.seed = 12;
  opts.faults.engine_failure_prob = 1.0;
  InferenceServer server(registry, opts);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        server.submit("convnet", registry.find("convnet")->make_input(
                                     kInputSeed, i)));
  }
  for (int i = 0; i < 6; ++i) {
    InferenceResult res = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(res.output, expected.at({"convnet", i})) << "stream " << i;
    EXPECT_TRUE(res.via_fallback);
    EXPECT_EQ(res.engine_attempts, 3);  // primary + 1 retry + fallback
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.fallbacks, stats.batches);
  EXPECT_EQ(stats.retries, stats.batches * 1u);
  EXPECT_GE(server.fault_injector().engine_failures_injected(),
            2 * stats.batches);
}

TEST(ServeRobustness, FallbackFailureFailsFuturesWithoutKillingWorker) {
  ModelRegistry registry;
  populate(registry);
  ServeOptions opts;
  opts.max_batch = 1;
  opts.batch_deadline = std::chrono::microseconds(0);
  opts.engine.jobs = 1;
  opts.engine_retries = 0;
  opts.retry_backoff = std::chrono::microseconds(0);
  opts.faults.seed = 13;
  opts.faults.engine_failure_prob = 1.0;
  opts.faults.fallback_failure_prob = 1.0;  // scalar fallback fails too
  InferenceServer server(registry, opts);

  const auto model = registry.find("mlp");
  auto f0 = server.submit(model, model->make_input(kInputSeed, 0));
  EXPECT_THROW((void)f0.get(), TransientEngineError);

  // The worker thread survived: a healthy run still completes after we
  // disable injection... which we cannot do per-request, so instead verify
  // the *next* request also resolves (exceptionally) rather than hanging.
  auto f1 = server.submit(model, model->make_input(kInputSeed, 1));
  EXPECT_THROW((void)f1.get(), TransientEngineError);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.fallbacks, 2u);
}

TEST(Serve, RegistryErrors) {
  ModelRegistry registry;
  populate(registry);
  EXPECT_THROW((void)registry.find("missing"), ConfigError);
  nn::Network net("dup", nn::Shape3{4, 4, 4});
  net.add_conv("c", 4, 3, 1, 1).precision_group = 0;
  quant::PrecisionProfile p;
  p.network = "dup";
  p.conv_act = {8};
  p.conv_weight = 8;
  quant::apply_profile(net, p);
  EXPECT_THROW((void)registry.add_synthetic("convnet", std::move(net), p, 1),
               ConfigError);
  // Weight-count mismatch.
  nn::Network net2("dup2", nn::Shape3{4, 4, 4});
  net2.add_conv("c", 4, 3, 1, 1).precision_group = 0;
  quant::apply_profile(net2, p);
  EXPECT_THROW((void)registry.add("dup2", std::move(net2), p, {}), ConfigError);
}

TEST(ServeRobustness, PreExpiredAbsoluteDeadlineRejectsImmediately) {
  ModelRegistry registry;
  populate(registry);
  ServeOptions opts;
  opts.engine.jobs = 1;
  InferenceServer server(registry, opts);
  const auto model = registry.find("mlp");

  const auto expired =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)server.submit(model, model->make_input(kInputSeed, 0),
                                   {.deadline_at = expired}),
               DeadlineExceededError);
  // try_submit must not burn its admission-wait budget on a request that is
  // already dead: the rejection is immediate even with a long timeout.
  EXPECT_THROW((void)server.try_submit(model, model->make_input(kInputSeed, 0),
                                       std::chrono::seconds(10),
                                       {.deadline_at = expired}),
               DeadlineExceededError);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));

  // Dead-on-arrival requests were never admitted: they count as rejected,
  // and the drain invariant stays exact.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.for_priority(Priority::kInteractive).rejected, 2u);

  // A future-dated absolute deadline admits normally.
  auto fut = server.submit(
      model, model->make_input(kInputSeed, 0),
      {.deadline_at = std::chrono::steady_clock::now() +
                      std::chrono::seconds(30)});
  EXPECT_NO_THROW((void)fut.get());
}

TEST(ServeRobustness, QueueSnapshotTracksPendingAndDrains) {
  ModelRegistry registry;
  populate(registry);
  ServeOptions opts;
  opts.max_batch = 8;
  // Hold the batch open so the queued requests are observable.
  opts.batch_deadline = std::chrono::microseconds(50'000);
  opts.engine.jobs = 1;
  InferenceServer server(registry, opts);
  const auto model = registry.find("mlp");

  const ServerStats idle = server.stats();
  EXPECT_EQ(idle.submitted, 0u);
  EXPECT_EQ(idle.peak_queue_depth, 0u);
  EXPECT_EQ(idle.batch_requests, 0u);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit(model, model->make_input(kInputSeed, i)));
  }
  // Admission is counted under the server lock before submit returns, so
  // the queued requests are visible immediately.
  const ServerStats busy = server.stats();
  EXPECT_EQ(busy.submitted, 3u);
  EXPECT_GE(busy.peak_queue_depth, 1u);

  for (auto& fut : futures) EXPECT_NO_THROW((void)fut.get());
  // stop(): refuse new work, run everything queued, join. Every admitted
  // request then sits in exactly one terminal bucket, here `completed`,
  // and every popped batch has resolved.
  server.stop();
  const ServerStats drained = server.stats();
  EXPECT_EQ(drained.submitted, 3u);
  EXPECT_EQ(drained.completed, 3u);
  EXPECT_EQ(drained.batch_requests, 3u);
  EXPECT_EQ(drained.shed + drained.timed_out + drained.failed, 0u);
}

// ---- Golden digest of server outputs --------------------------------------
// FNV-1a over the outputs of a fixed request roster served through the
// batcher, in submission order. Must equal both the pinned constant
// (captured from solo runs of the engine on this roster — serving cannot
// change results) and stay stable across batching compositions: the digest
// is independent of how the batcher happened to slice the roster.

constexpr std::uint64_t kServeGolden = 0xab0a1c6213d51055ull;

TEST(ServeGolden, OutputsMatchPinnedSoloDigest) {
  ModelRegistry registry;
  populate(registry);

  // Digest of the same roster run solo, computed in-test: serving must be
  // invisible in the results no matter how the batcher sliced the roster.
  golden::Fnv solo;
  {
    sim::FunctionalLoomEngine engine(sim::FunctionalOptions{.jobs = 1});
    for (int i = 0; i < 12; ++i) {
      const auto model = registry.find(i % 2 == 0 ? "convnet" : "mlp");
      solo.tensor(engine
                      .run_network(model->net, model->make_input(kInputSeed, i),
                                   model->weights)
                      .output);
    }
  }
  EXPECT_EQ(solo.h, kServeGolden);

  ServeOptions opts;
  opts.max_batch = 6;
  opts.batch_deadline = std::chrono::microseconds(300);
  opts.workers = 1;
  opts.engine.jobs = 1;
  InferenceServer server(registry, opts);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 12; ++i) {
    const auto model = registry.find(i % 2 == 0 ? "convnet" : "mlp");
    futures.push_back(server.submit(model, model->make_input(kInputSeed, i)));
  }
  golden::Fnv f;
  for (auto& fut : futures) f.tensor(fut.get().output);
  EXPECT_EQ(f.h, kServeGolden);
}

}  // namespace
}  // namespace loom::serve
