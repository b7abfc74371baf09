#include "serve/server.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "sim/backend.hpp"

namespace loom::serve {

namespace {

/// Nanosecond count for a steady-clock duration (histogram sample).
[[nodiscard]] std::uint64_t ns_of(std::chrono::steady_clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  return ns.count() < 0 ? 0 : static_cast<std::uint64_t>(ns.count());
}

}  // namespace

const char* priority_name(Priority p) noexcept {
  switch (p) {
    case Priority::kInteractive: return "interactive";
    case Priority::kBatch: return "batch";
    case Priority::kBestEffort: return "best-effort";
  }
  return "?";
}

std::size_t InferenceServer::ModelQueue::size() const noexcept {
  std::size_t n = 0;
  for (const auto& dq : pending) n += dq.size();
  return n;
}

int InferenceServer::ModelQueue::best_class() const noexcept {
  for (int c = 0; c < kPriorityClasses; ++c) {
    if (!pending[static_cast<std::size_t>(c)].empty()) return c;
  }
  return kPriorityClasses;
}

InferenceServer::Clock::time_point
InferenceServer::ModelQueue::earliest_enqueued() const noexcept {
  Clock::time_point t = Clock::time_point::max();
  for (const auto& dq : pending) {
    if (!dq.empty()) t = std::min(t, dq.front().enqueued);
  }
  return t;
}

InferenceServer::Clock::time_point
InferenceServer::ModelQueue::earliest_deadline() const noexcept {
  Clock::time_point t = Clock::time_point::max();
  for (const auto& dq : pending) {
    for (const Pending& p : dq) t = std::min(t, p.deadline);
  }
  return t;
}

InferenceServer::InferenceServer(const ModelRegistry& models, ServeOptions opts)
    : models_(models), opts_(opts), injector_(opts.faults) {
  LOOM_EXPECTS(opts_.max_batch >= 1);
  LOOM_EXPECTS(opts_.queue_depth >= 1);
  LOOM_EXPECTS(opts_.workers >= 1);
  LOOM_EXPECTS(opts_.batch_deadline.count() >= 0);
  LOOM_EXPECTS(opts_.shed_watermark > 0.0 && opts_.shed_watermark <= 1.0);
  LOOM_EXPECTS(opts_.engine_retries >= 0);
  LOOM_EXPECTS(opts_.retry_backoff.count() >= 0);
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  try {
    for (int i = 0; i < opts_.workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

InferenceServer::~InferenceServer() { stop(); }

std::size_t InferenceServer::shed_threshold() const noexcept {
  const auto mark = static_cast<std::size_t>(
      opts_.shed_watermark * static_cast<double>(opts_.queue_depth));
  return std::clamp<std::size_t>(mark, 1, opts_.queue_depth);
}

std::future<InferenceResult> InferenceServer::submit(const std::string& model,
                                                     nn::Tensor input,
                                                     SubmitOptions sopts) {
  return submit(models_.find(model), std::move(input), sopts);
}

std::future<InferenceResult> InferenceServer::submit(
    std::shared_ptr<const Model> model, nn::Tensor input, SubmitOptions sopts) {
  return enqueue(std::move(model), std::move(input), sopts, /*bounded=*/false,
                 Clock::time_point::max());
}

std::future<InferenceResult> InferenceServer::try_submit(
    std::shared_ptr<const Model> model, nn::Tensor input,
    std::chrono::nanoseconds timeout, SubmitOptions sopts) {
  LOOM_EXPECTS(timeout.count() >= 0);
  return enqueue(std::move(model), std::move(input), sopts, /*bounded=*/true,
                 Clock::now() + timeout);
}

bool InferenceServer::evict_lower_priority(Priority incoming,
                                           std::vector<Pending>& evicted) {
  for (int c = kPriorityClasses - 1; c > static_cast<int>(incoming); --c) {
    const auto cls = static_cast<std::size_t>(c);
    // The newest request of the lowest pending class across all models: the
    // work that would be shed last by arrival order but first by class.
    ModelQueue* victim_q = nullptr;
    const Model* victim_key = nullptr;
    std::uint64_t newest = 0;
    for (auto& [key, q] : queues_) {
      const auto& dq = q.pending[cls];
      if (dq.empty()) continue;
      if (victim_q == nullptr || dq.back().sequence > newest) {
        victim_q = &q;
        victim_key = key;
        newest = dq.back().sequence;
      }
    }
    if (victim_q == nullptr) continue;
    auto& dq = victim_q->pending[cls];
    evicted.push_back(std::move(dq.back()));
    dq.pop_back();
    --total_pending_;
    ++stats_.shed;
    ++stats_.by_class[cls].shed;
    if (victim_q->empty() && !victim_q->claimed) queues_.erase(victim_key);
    return true;
  }
  return false;
}

void InferenceServer::sweep_expired(ModelQueue& q, Clock::time_point now,
                                    std::vector<Pending>& expired) {
  for (std::size_t c = 0; c < static_cast<std::size_t>(kPriorityClasses); ++c) {
    auto& dq = q.pending[c];
    for (auto it = dq.begin(); it != dq.end();) {
      if (it->has_deadline() && it->deadline <= now) {
        ++stats_.timed_out;
        ++stats_.by_class[c].timed_out;
        expired.push_back(std::move(*it));
        it = dq.erase(it);
        --total_pending_;
      } else {
        ++it;
      }
    }
  }
}

std::future<InferenceResult> InferenceServer::enqueue(
    std::shared_ptr<const Model> model, nn::Tensor input, SubmitOptions sopts,
    bool bounded, Clock::time_point admit_by) {
  LOOM_EXPECTS(model != nullptr);
  LOOM_EXPECTS(sopts.deadline.count() >= 0);
  const auto cls = static_cast<std::size_t>(sopts.priority);
  LOOM_EXPECTS(cls < static_cast<std::size_t>(kPriorityClasses));
  // The engine's own input check, applied here so a misshapen request is
  // refused alone instead of failing every request batched with it.
  if (!sim::accepts_input(model->net.layer(0), input)) {
    const nn::Shape3 in = model->input_shape();
    throw ConfigError("model '" + model->name + "' expects input " +
                      nn::Shape{in.c, in.h, in.w}.to_string() + ", got " +
                      input.shape().to_string());
  }
  // Dead-on-arrival fast path: an already-expired absolute deadline is
  // rejected before admission ever runs — the request is never queued, so
  // the drain invariant (submitted == completed + shed + timed_out +
  // failed) is untouched; the refusal lands in `rejected`.
  if (sopts.deadline_at <= Clock::now()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.rejected;
      ++stats_.by_class[cls].rejected;
    }
    throw DeadlineExceededError(
        std::string(priority_name(sopts.priority)) +
        " request rejected at admission: absolute deadline already expired");
  }

  std::vector<Pending> evicted;
  std::future<InferenceResult> fut;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t depth = opts_.queue_depth;
    // Best-effort admissions shed at the watermark; higher classes only at
    // a full queue.
    const std::size_t limit =
        sopts.priority == Priority::kBestEffort ? shed_threshold() : depth;
    const bool interactive = sopts.priority == Priority::kInteractive;
    for (;;) {
      if (stopping_) {
        throw ShutdownError("inference server is stopping; request rejected");
      }
      // A fault-injected pressure spike makes shed decisions observe
      // phantom pending work (sheds fire early). Interactive admission and
      // every blocking predicate use the physical occupancy, so injection
      // can delay but never permanently starve an admissible request.
      const std::size_t effective =
          interactive ? total_pending_
                      : total_pending_ + injector_.queue_spike();
      if (effective < limit) break;  // admissible
      // Physically full: shed the newest queued request of a strictly
      // lower class (its future gets OverloadError) and take its slot.
      if (total_pending_ >= depth &&
          evict_lower_priority(sopts.priority, evicted)) {
        break;
      }
      if (!bounded) {
        if (interactive) {
          // Blocking backpressure: interactive work is never shed.
          space_cv_.wait(lock,
                         [&] { return stopping_ || total_pending_ < depth; });
          continue;
        }
        ++stats_.rejected;
        ++stats_.by_class[cls].rejected;
        throw OverloadError(
            std::string(priority_name(sopts.priority)) +
            " request shed at admission: " + std::to_string(effective) +
            " pending >= " + std::to_string(limit) + " (queue depth " +
            std::to_string(depth) + ")");
      }
      // Bounded wait (try_submit): sleep until space frees or a short
      // re-poll slice elapses, then re-evaluate; spurious wakes are fine
      // because the loop re-checks everything, and the slice keeps a
      // spiked (phantom-pressure) decision from spinning hot.
      if (Clock::now() >= admit_by) {
        ++stats_.rejected;
        ++stats_.by_class[cls].rejected;
        throw OverloadError(std::string(priority_name(sopts.priority)) +
                            " request shed: try_submit admission wait "
                            "expired with " +
                            std::to_string(total_pending_) + " pending");
      }
      const Clock::time_point slice =
          std::min(admit_by, Clock::now() + std::chrono::milliseconds(1));
      (void)space_cv_.wait_until(lock, slice);
    }

    Pending p;
    p.model = std::move(model);
    p.input = std::move(input);
    p.enqueued = Clock::now();
    if (sopts.deadline.count() > 0) p.deadline = p.enqueued + sopts.deadline;
    p.deadline = std::min(p.deadline, sopts.deadline_at);
    p.priority = sopts.priority;
    p.sequence = next_sequence_++;
    fut = p.promise.get_future();
    queues_[p.model.get()].pending[cls].push_back(std::move(p));
    ++total_pending_;
    ++stats_.submitted;
    ++stats_.by_class[cls].submitted;
    stats_.peak_queue_depth =
        std::max<std::uint64_t>(stats_.peak_queue_depth, total_pending_);
  }
  for (Pending& v : evicted) {
    v.promise.set_exception(std::make_exception_ptr(OverloadError(
        std::string(priority_name(v.priority)) +
        " request shed: evicted from the queue for higher-priority work")));
  }
  // notify_all, not notify_one: a worker holding an underfull batch open in
  // its deadline wait shares this CV, and its predicate stays false for
  // requests aimed at *other* models — a single notification could be
  // swallowed by it while an idle worker sleeps.
  work_cv_.notify_all();
  return fut;
}

void InferenceServer::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  std::call_once(join_once_, [this] {
    for (std::thread& w : workers_) w.join();
  });
}

ServerStats InferenceServer::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

InferenceServer::ModelQueue* InferenceServer::best_queue() {
  ModelQueue* best = nullptr;
  int best_cls = kPriorityClasses;
  std::uint64_t best_seq = 0;
  for (auto& [model, q] : queues_) {
    if (q.claimed || q.empty()) continue;
    const int cls = q.best_class();
    const std::uint64_t seq =
        q.pending[static_cast<std::size_t>(cls)].front().sequence;
    if (best == nullptr || cls < best_cls ||
        (cls == best_cls && seq < best_seq)) {
      best = &q;
      best_cls = cls;
      best_seq = seq;
    }
  }
  return best;
}

void InferenceServer::worker_loop() {
  // One engine per worker: engines carry dispatcher statistics and scratch
  // state, so they are confined to their thread; the kernel's fan-out
  // inside a run still stripes over the shared pool.
  sim::FunctionalLoomEngine engine(opts_.engine);
  // Scalar-oracle fallback engine, built on first use: byte-identical
  // outputs to the primary engine (pinned by test).
  std::optional<sim::FunctionalLoomEngine> scalar;
  const auto scalar_engine = [&]() -> sim::FunctionalLoomEngine& {
    if (!scalar) {
      sim::FunctionalOptions so = opts_.engine;
      so.backend = "scalar";
      scalar.emplace(so);
    }
    return *scalar;
  };
  const auto max_batch = static_cast<std::size_t>(opts_.max_batch);

  for (;;) {
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    Clock::time_point popped;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Wake for work this worker can serve (claimed queues belong to the
      // worker holding them open) or for the drained-shutdown exit.
      work_cv_.wait(lock, [&] {
        return best_queue() != nullptr || (stopping_ && total_pending_ == 0);
      });
      if (stopping_ && total_pending_ == 0) return;
      ModelQueue* q = best_queue();
      if (q == nullptr) continue;  // claimed remainder; its worker notifies

      // Dynamic batching: hold the batch open for late arrivals until the
      // earliest request's batching deadline (capped by any per-request
      // completion deadline — holding past it would expire the request),
      // lane fill, or shutdown — whichever first. The claim keeps other
      // workers off this queue (they serve other models meanwhile) and
      // makes the map node ours to erase.
      q->claimed = true;
      if (opts_.batch_deadline.count() > 0 && !stopping_ &&
          q->size() < max_batch) {
        const Clock::time_point hold =
            std::min(q->earliest_enqueued() + opts_.batch_deadline,
                     q->earliest_deadline());
        work_cv_.wait_until(lock, hold, [&] {
          return stopping_ || q->size() >= max_batch;
        });
      }

      // Requests whose deadline already passed never run: their futures
      // resolve with DeadlineExceededError below, outside the lock.
      popped = Clock::now();
      sweep_expired(*q, popped, expired);

      // Pop in class-major FIFO order: interactive ahead of batch ahead of
      // best-effort, arrival order within a class.
      const std::size_t n = std::min(q->size(), max_batch);
      batch.reserve(n);
      for (auto& dq : q->pending) {
        while (batch.size() < n && !dq.empty()) {
          batch.push_back(std::move(dq.front()));
          dq.pop_front();
        }
      }
      total_pending_ -= batch.size();
      q->claimed = false;
      if (q->empty()) {
        // Drop the node so ad-hoc (unregistered) models cannot grow the
        // map without bound; safe — the claim kept every other worker out.
        // (The batch may be empty when every request expired or was
        // evicted, so find the key by node identity.)
        for (auto it = queues_.begin(); it != queues_.end(); ++it) {
          if (&it->second == q) {
            queues_.erase(it);
            break;
          }
        }
      }
    }
    // Other workers may now serve this model's remainder (or observe the
    // drained-shutdown state); producers may refill the freed queue slots.
    work_cv_.notify_all();
    space_cv_.notify_all();

    for (Pending& p : expired) {
      p.promise.set_exception(std::make_exception_ptr(DeadlineExceededError(
          std::string(priority_name(p.priority)) +
          " request deadline expired before batch formation")));
    }
    if (batch.empty()) continue;

    // Injected batcher stall: pressure builds behind a slow worker.
    if (injector_.should_delay_batcher()) {
      std::this_thread::sleep_for(injector_.plan().batcher_delay);
    }

    const auto n = batch.size();
    std::vector<nn::Tensor> inputs;
    inputs.reserve(n);
    for (Pending& p : batch) inputs.push_back(std::move(p.input));
    const Model& model = *batch.front().model;

    // Graceful degradation: primary attempts with exponential backoff,
    // then the scalar oracle, then per-future failure. The worker itself
    // never dies on an engine error. The injector's engine-failure site
    // draws once per primary attempt, never for the fallback.
    const Clock::time_point t0 = Clock::now();
    sim::FunctionalBatchNetworkRun run;
    std::exception_ptr err;
    bool ok = false;
    bool via_fallback = false;
    bool fell_back = false;
    std::uint64_t retries = 0;
    int attempts = 0;
    for (int a = 0; a <= opts_.engine_retries && !ok; ++a) {
      if (a > 0) {
        ++retries;
        std::this_thread::sleep_for(opts_.retry_backoff * (1LL << (a - 1)));
      }
      ++attempts;
      try {
        if (injector_.should_fail_engine()) {
          throw TransientEngineError("injected engine fault");
        }
        run = engine.run_network_batch(model.net, inputs, model.weights);
        ok = true;
      } catch (...) {
        err = std::current_exception();
      }
    }
    if (!ok) {
      fell_back = true;
      ++attempts;
      try {
        if (injector_.should_fail_fallback()) {
          throw TransientEngineError("injected fallback-engine fault");
        }
        run = scalar_engine().run_network_batch(model.net, inputs,
                                                model.weights);
        ok = true;
        via_fallback = true;
      } catch (...) {
        err = std::current_exception();
      }
    }
    const Clock::time_point t1 = Clock::now();

    // A result delivered after its request's deadline is a timeout, not a
    // completion — the caller stopped waiting.
    std::vector<char> late(n, 0);
    // Record stats *before* resolving the futures, so a caller that has
    // joined on every future observes completed == submitted.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.batches;
      stats_.batch_requests += n;
      stats_.peak_batch = std::max<std::uint64_t>(stats_.peak_batch, n);
      stats_.retries += retries;
      if (fell_back) ++stats_.fallbacks;
      for (const sim::FunctionalBatchLayerRun& lr : run.layers) {
        ++stats_.backend_layer_runs[lr.backend];
      }
      for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::size_t>(batch[i].priority);
        if (!ok) {
          ++stats_.failed;
          ++stats_.by_class[c].failed;
          continue;
        }
        if (batch[i].has_deadline() && batch[i].deadline <= t1) {
          late[i] = 1;
          ++stats_.timed_out;
          ++stats_.by_class[c].timed_out;
          continue;
        }
        ++stats_.completed;
        ++stats_.by_class[c].completed;
        stats_.by_class[c].queue_wait_ns.add(
            ns_of(popped - batch[i].enqueued));
        stats_.by_class[c].run_time_ns.add(ns_of(t1 - t0));
        stats_.by_class[c].latency_ns.add(ns_of(t1 - batch[i].enqueued));
      }
    }

    if (ok) {
      for (std::size_t i = 0; i < n; ++i) {
        if (late[i]) {
          batch[i].promise.set_exception(
              std::make_exception_ptr(DeadlineExceededError(
                  std::string(priority_name(batch[i].priority)) +
                  " request deadline expired before completion")));
          continue;
        }
        InferenceResult res;
        res.output = std::move(run.outputs[i]);
        res.batch_size = static_cast<int>(n);
        res.queue_wait = popped - batch[i].enqueued;
        res.run_time = t1 - t0;
        res.priority = batch[i].priority;
        res.via_fallback = via_fallback;
        res.engine_attempts = attempts;
        batch[i].promise.set_value(std::move(res));
      }
    } else {
      // Fail each request's future individually; the worker survives to
      // serve the next batch.
      for (Pending& p : batch) {
        p.promise.set_exception(err);
      }
    }
  }
}

}  // namespace loom::serve
