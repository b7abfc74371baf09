// serve_mix: the two serve_demo models (convnet 8x20x20, mlp 256->96->48->10)
// behind one InferenceServer (workers=2, engine.jobs=1, max_batch=8, 200 us
// batch deadline, queue_depth=64).
//
// Open loop: one generator thread submits a seeded 50/50 mix at a fixed rate
// (--rate, evenly spaced send times) as Priority::kBatch through try_submit
// with zero timeout, so a full queue sheds instead of blocking the
// generator. Each request is timed from its scheduled send to the moment its
// future is seen ready. A closed-loop phase then keeps 16 requests
// outstanding to measure capacity. Every completed output is checked
// byte-for-byte against a solo run_network of the same input.
//
// Set-up (timed): registration plus warm-up until the autotuner has a
// winner for every (layer, batch 1..8) cell the server can touch.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <random>
#include <thread>

#include "common/error.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace loom;

namespace {

constexpr int kMaxBatch = 8;
constexpr int kPoolPerModel = 64;  // distinct inputs per model
constexpr int kClosedOutstanding = 16;
/// How long the collector sleeps between polls that find nothing ready: the
/// most a request's latency can read high by (the mlp takes ~700 us).
constexpr auto kPollInterval = std::chrono::microseconds(20);

serve::ServeOptions serve_options() {
  serve::ServeOptions opts;
  opts.workers = 2;
  opts.engine.jobs = 1;
  opts.max_batch = kMaxBatch;
  opts.batch_deadline = std::chrono::microseconds(200);
  opts.queue_depth = 64;
  return opts;
}

std::shared_ptr<const serve::Model> register_convnet(serve::ModelRegistry& reg,
                                                     std::uint64_t seed) {
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
  return reg.add_synthetic("convnet", std::move(net), p, seed);
}

std::shared_ptr<const serve::Model> register_mlp(serve::ModelRegistry& reg,
                                                 std::uint64_t seed) {
  nn::Network net("mlp", nn::Shape3{256, 1, 1});
  net.add_fc("h1", 96);
  net.add_fc("h2", 48);
  net.add_fc("logits", 10);
  quant::PrecisionProfile p;
  p.network = "mlp";
  p.conv_weight = 8;
  p.fc_weight = {8, 8, 8};
  quant::apply_profile(net, p);
  return reg.add_synthetic("mlp", std::move(net), p, seed);
}

struct Setup {
  serve::ModelRegistry registry;
  std::vector<std::shared_ptr<const serve::Model>> models;  // convnet, mlp
  std::vector<double> register_ms;
  double setup_s = 0.0;
};

/// Registration + autotuner warm-up over every batch size the server forms.
void set_up(Setup& s, std::uint64_t seed, Report& report) {
  const auto t0 = Clock::now();
  for (int k = 0; k < 2; ++k) {
    ScopedSpan span(k == 0 ? "serve.register.convnet" : "serve.register.mlp");
    const auto r0 = Clock::now();
    s.models.push_back(k == 0 ? register_convnet(s.registry, seed * 1000 + 11)
                              : register_mlp(s.registry, seed * 1000 + 12));
    s.register_ms.push_back(ms_since(r0));
  }
  sim::FunctionalLoomEngine engine(serve_options().engine);
  ScopedSpan span("engine.autotune_warmup");
  const int passes = warm_until_decided(
      [&] {
        for (const auto& m : s.models) {
          for (int b = 1; b <= kMaxBatch; ++b) {
            std::vector<nn::Tensor> inputs;
            for (int i = 0; i < b; ++i) inputs.push_back(m->make_input(seed, 900'000 + i));
            (void)engine.run_network_batch(m->net, inputs, m->weights);
          }
        }
      },
      8);
  if (passes < 0) report.fail("autotuner still exploring after 8 warm-up passes");
  report.notes["warmup_passes"] = std::to_string(passes);
  report.notes["autotune.decisions"] = autotune_decisions_note();
  s.setup_s = ms_since(t0) / 1e3;
}

/// One request of either phase.
struct Request {
  std::int64_t id = 0;
  int model = 0;
  int input = 0;
  Clock::time_point scheduled, submitted, done;
  std::future<serve::InferenceResult> future;
  bool admitted = false;
};

/// What the collector saw of the finished requests.
struct Outcomes {
  std::vector<double> latency_ms;      // scheduled send -> seen ready
  /// The same per model: a 50/50 mix of a ~3 ms and a ~0.7 ms model puts the
  /// pooled median in the gap between the two modes, where it is unsteady.
  std::array<std::vector<double>, 2> model_latency_ms;
  std::vector<double> queue_wait_ms;   // InferenceResult::queue_wait
  std::vector<double> run_ms;          // InferenceResult::run_time
  std::vector<double> overhead_ms;     // submit -> ready minus wait and run
  std::int64_t completed = 0, shed = 0, failed = 0, timed_out = 0, wrong = 0;
};

using Expected = std::vector<std::vector<nn::Tensor>>;  // [model][input]

/// Resolve a ready request into `out`, checking its output against the solo
/// run of the same input.
void resolve(Request& r, const Expected& expected, Outcomes& out) {
  try {
    const serve::InferenceResult res = r.future.get();
    ++out.completed;
    if (!(res.output == expected[static_cast<std::size_t>(r.model)]
                                [static_cast<std::size_t>(r.input)])) {
      ++out.wrong;
    }
    const double wait = std::chrono::duration<double, std::milli>(res.queue_wait).count();
    const double run = std::chrono::duration<double, std::milli>(res.run_time).count();
    out.latency_ms.push_back(ms_between(r.scheduled, r.done));
    out.model_latency_ms[static_cast<std::size_t>(r.model)].push_back(out.latency_ms.back());
    out.queue_wait_ms.push_back(wait);
    out.run_ms.push_back(run);
    out.overhead_ms.push_back(ms_between(r.submitted, r.done) - wait - run);
    Tracer& t = Tracer::instance();
    if (t.enabled()) {
      const std::uint64_t id = t.next_id();
      const auto wait_end = r.submitted + res.queue_wait;
      t.record(id, "serve.request", r.scheduled, r.done, 0, r.id);
      t.record(t.next_id(), "serve.queue_wait", r.submitted, wait_end, id, r.id);
      t.record(t.next_id(), "serve.engine_batch", wait_end, wait_end + res.run_time, id,
               r.id);
    }
  } catch (const DeadlineExceededError&) {
    ++out.timed_out;
  } catch (const std::exception&) {
    ++out.failed;
  }
}

/// Poll every pending request with zero wait and stamp each one found ready
/// with the time it was seen; sleep kPollInterval when none is. Blocking on
/// one particular future instead would charge a fast request that finished
/// behind a slow one for the slow one's remaining time, and spinning would
/// take a core from the two workers.
void collect_ready(std::vector<Request*>& pending, const Expected& expected,
                   Outcomes& out) {
  bool any = false;
  for (Request* r : pending) {
    if (r->future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      r->done = Clock::now();
      any = true;
    }
  }
  if (!any) {
    std::this_thread::sleep_for(kPollInterval);
    return;
  }
  std::erase_if(pending, [&](Request* r) {
    if (r->done == Clock::time_point{}) return false;
    resolve(*r, expected, out);
    return true;
  });
}

/// Priority::kBatch with zero admission wait: a full queue sheds.
std::future<serve::InferenceResult> submit_batch(
    serve::InferenceServer& server, std::shared_ptr<const serve::Model> model,
    nn::Tensor input) {
  serve::SubmitOptions sopts;
  sopts.priority = serve::Priority::kBatch;
  return server.try_submit(std::move(model), std::move(input),
                           std::chrono::nanoseconds(0), sopts);
}

void report_percentiles(Report& report, const std::string& prefix,
                        const std::vector<double>& v) {
  const auto n = static_cast<std::int64_t>(v.size());
  report.set(prefix + "_p50_ms", quantile(v, 0.50), "ms", n);
  report.set(prefix + "_p90_ms", quantile(v, 0.90), "ms", n);
  report.set(prefix + "_p99_ms", quantile(v, 0.99), "ms", n);
  report.set(prefix + "_max_ms", quantile(v, 1.0), "ms", n);
}

}  // namespace

void run_serve_setup(const Args& args, Report& report) {
  Setup s;
  set_up(s, static_cast<std::uint64_t>(args.integer("seed", 1)), report);
  report.set("setup_s", s.setup_s, "s");
}

void run_serve_mix(const Args& args, Report& report) {
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  const double seconds = args.num("seconds", 10.0);
  const double rate = args.num("rate");
  const double limit_ms = args.num("p99-limit-ms");
  if (rate <= 0.0) throw std::invalid_argument("--rate must be positive");
  // This thread collects results; keep its polling sleeps near kPollInterval
  // instead of letting the default 50 us timer slack stretch them.
  prctl(PR_SET_TIMERSLACK, 1000UL);

  Setup s;
  set_up(s, seed, report);
  report.set("setup_s", s.setup_s, "s");

  // Input pools and their solo outputs (outside every timed region).
  std::vector<std::vector<nn::Tensor>> pool(2);
  Expected expected(2);
  {
    sim::FunctionalLoomEngine solo(serve_options().engine);
    for (int k = 0; k < 2; ++k) {
      const serve::Model& m = *s.models[static_cast<std::size_t>(k)];
      for (int i = 0; i < kPoolPerModel; ++i) {
        pool[k].push_back(m.make_input(seed, static_cast<std::uint64_t>(i)));
        expected[k].push_back(solo.run_network(m.net, pool[k].back(), m.weights).output);
      }
    }
  }
  std::mt19937_64 rng(seed);
  std::int64_t next_id = 0;
  const auto draw = [&](Request& r) {
    r.id = next_id++;
    r.model = static_cast<int>(rng() % 2);
    r.input = static_cast<int>(rng() % kPoolPerModel);
  };

  // ---- open loop at the fixed rate -----------------------------------------
  // Five seconds at the fixed rate already give thousands of latencies; a
  // longer open loop only adds exposure to host stalls, which fill the queue
  // and shed. The rest of --seconds goes to the closed loop.
  const double open_s = std::min(5.0, 0.5 * seconds);
  const auto n_open = static_cast<std::size_t>(std::max(1.0, rate * open_s));
  std::vector<Request> open(n_open);
  for (Request& r : open) draw(r);
  Outcomes oo;
  std::vector<double> late_ms(n_open, 0.0);
  const std::uint64_t explore_before = autotune_explore_records();
  serve::ServerStats open_stats;
  // One server for both phases: a second one would rebuild its workers'
  // engines, and where their buffers land in the heap varies run to run.
  serve::InferenceServer server(s.registry, serve_options());
  {
    std::atomic<std::size_t> published{0};
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto period = std::chrono::duration<double>(1.0 / rate);
    std::thread generator([&] {
      for (std::size_t i = 0; i < n_open; ++i) {
        Request& r = open[i];
        nn::Tensor input = pool[static_cast<std::size_t>(r.model)]
                               [static_cast<std::size_t>(r.input)];
        r.scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                  period * static_cast<double>(i));
        std::this_thread::sleep_until(r.scheduled);
        r.submitted = Clock::now();
        late_ms[i] = ms_between(r.scheduled, r.submitted);
        ScopedSpan span("serve.try_submit", 0, r.id);
        try {
          r.future = submit_batch(server, s.models[static_cast<std::size_t>(r.model)],
                                  std::move(input));
          r.admitted = true;
        } catch (const OverloadError&) {
          // Shed at admission; the collector counts it.
        }
        published.store(i + 1, std::memory_order_release);
      }
    });
    std::vector<Request*> pending;
    std::size_t seen = 0;
    while (seen < n_open || !pending.empty()) {
      const std::size_t now_published = published.load(std::memory_order_acquire);
      for (; seen < now_published; ++seen) {
        if (open[seen].admitted) {
          pending.push_back(&open[seen]);
        } else {
          ++oo.shed;
        }
      }
      collect_ready(pending, expected, oo);
    }
    generator.join();
    open_stats = server.stats();
  }
  // Peak memory of serving at the fixed rate. The closed loop below forms
  // batches of up to 8, and which worker's kernels grow their scratch for
  // them varies from run to run, so it is left out.
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  // ---- closed loop: 16 outstanding ------------------------------------------
  const double closed_s = seconds - open_s;
  std::vector<Request> closed;
  closed.reserve(static_cast<std::size_t>(closed_s * 20'000) + 64);  // >> capacity
  Outcomes co;
  double closed_elapsed = 0.0;
  {
    std::vector<Request*> pending;
    const auto t0 = Clock::now();
    const auto submit_next = [&] {
      if (closed.size() == closed.capacity()) return;  // keep pointers stable
      Request& r = closed.emplace_back();
      draw(r);
      r.scheduled = r.submitted = Clock::now();
      try {
        r.future = submit_batch(server, s.models[static_cast<std::size_t>(r.model)],
                                pool[static_cast<std::size_t>(r.model)]
                                    [static_cast<std::size_t>(r.input)]);
        r.admitted = true;
        pending.push_back(&r);
      } catch (const OverloadError&) {
        ++co.shed;
      }
    };
    for (int i = 0; i < kClosedOutstanding; ++i) submit_next();
    while (!pending.empty()) {
      const std::size_t before = pending.size();
      collect_ready(pending, expected, co);
      if (ms_since(t0) < closed_s * 1e3) {
        for (std::size_t i = pending.size(); i < before; ++i) submit_next();
      }
    }
    closed_elapsed = ms_since(t0) / 1e3;
  }
  server.stop();
  const std::uint64_t explored = autotune_explore_records() - explore_before;

  // ---- end-to-end -----------------------------------------------------------
  const auto attempted = static_cast<std::int64_t>(n_open);
  report.attempted = attempted + static_cast<std::int64_t>(closed.size());
  report.failed = oo.shed + oo.failed + oo.timed_out + co.shed + co.failed + co.timed_out;
  report_percentiles(report, "serve", oo.latency_ms);
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& v = oo.model_latency_ms[k];
    report.set("serve_p50_ms." + s.models[k]->name, median(v), "ms",
               static_cast<std::int64_t>(v.size()));
  }
  report_percentiles(report, "generator_late", late_ms);
  report.set("serve.offered_rps", rate, "1/s");
  report.set("serve.attempted", static_cast<double>(attempted), "count");
  report.set("serve.succeeded", static_cast<double>(oo.completed), "count");
  report.set("serve.shed_count", static_cast<double>(oo.shed), "count");
  report.set("serve.failed_count", static_cast<double>(oo.failed), "count");
  report.set("serve.timed_out_count", static_cast<double>(oo.timed_out), "count");
  report.set("serve.limit_ms", limit_ms, "ms");
  const auto over_limit = std::count_if(oo.latency_ms.begin(), oo.latency_ms.end(),
                                        [&](double v) { return v > limit_ms; });
  report.set("serve.limit_miss", static_cast<double>(over_limit + oo.shed + oo.failed +
                                                     oo.timed_out),
             "count", attempted);
  report.set("serve_capacity_rps", static_cast<double>(co.completed) / closed_elapsed,
             "1/s", co.completed);

  // ---- per-layer ------------------------------------------------------------
  const auto share = [&](std::int64_t n) {
    return static_cast<double>(n) / static_cast<double>(attempted);
  };
  report.set("server.queue_wait_ms_p50", quantile(oo.queue_wait_ms, 0.5), "ms",
             oo.completed);
  report.set("server.queue_wait_ms_p99", quantile(oo.queue_wait_ms, 0.99), "ms",
             oo.completed);
  report.set("server.run_ms_p50", quantile(oo.run_ms, 0.5), "ms", oo.completed);
  report.set("server.overhead_ms_p50", quantile(oo.overhead_ms, 0.5), "ms", oo.completed);
  report.set("server.batch_mean", open_stats.mean_batch(), "count",
             static_cast<std::int64_t>(open_stats.batches));
  report.set("server.shed", share(oo.shed), "share", attempted);
  report.set("server.failed", share(oo.failed), "share", attempted);
  report.set("server.timed_out", share(oo.timed_out), "share", attempted);
  report.set("autotune.explore_records", static_cast<double>(explored), "count");
  std::string kernels;
  for (const auto& [name, runs] : open_stats.backend_layer_runs) {
    kernels += (kernels.empty() ? "" : ",") + name + "=" + std::to_string(runs);
  }
  report.notes["kernels.layer_runs"] = kernels;

  // ---- correctness gates ------------------------------------------------------
  if (explored != 0) report.fail("autotuner explored while measuring");
  if (oo.wrong + co.wrong > 0) {
    report.fail(std::to_string(oo.wrong + co.wrong) +
                " served outputs differ from solo run_network");
  }
  if (oo.completed + co.completed == 0) report.fail("no request completed");

  if (!Tracer::instance().enabled()) return;
  // ---- traced: batched engine outside the server, cold start ---------------
  sim::FunctionalLoomEngine engine(serve_options().engine);
  for (int k = 0; k < 2; ++k) {
    const serve::Model& m = *s.models[static_cast<std::size_t>(k)];
    for (const int b : {1, kMaxBatch}) {
      const std::vector<nn::Tensor> inputs(pool[k].begin(), pool[k].begin() + b);
      std::vector<double> ms;
      while (ms.size() < 20) {
        ScopedSpan span("engine.run_network_batch." + m.name);
        const auto t0 = Clock::now();
        (void)engine.run_network_batch(m.net, inputs, m.weights);
        ms.push_back(ms_since(t0));
      }
      report.set("engine.batch_ms." + m.name + ".b" + std::to_string(b), median(ms),
                 "ms", static_cast<std::int64_t>(ms.size()));
    }
    report.set("setup.register_ms." + m.name, s.register_ms[static_cast<std::size_t>(k)],
               "ms");
    measure_snapshot_load(m, args.get("out-dir", ".") + "/snapshot-" + m.name + ".bin",
                          report, 5);
  }
  if (autotune_explore_records() != explore_before) {
    report.fail("autotuner explored during the batched engine calls");
  }
}

}  // namespace perfbench
