// Batched inference serving over the functional engine, with an
// overload-resilience layer: admission control, priority classes, deadlines,
// load shedding and graceful degradation.
//
// The engine's GEMM kernel works on slabs of up to 64 windows, and an FC
// layer (one window) is a matrix-vector product that streams every weight
// row once per call. A single small image leaves slabs part-empty, and a
// lone FC request pays the whole weight stream for one output vector. The
// InferenceServer amortizes both *across requests*: concurrent submissions
// for the same (network, profile) pair coalesce into batches that run
// through FunctionalLoomEngine::run_network_batch, where the im2col window
// ranges of different requests concatenate into the same slabs, each FC
// weight row is applied to every request, and each request's outputs demux
// back out.
//
// Request lifecycle:
//   submit(model, input, {priority, deadline})
//     |  admission control: interactive blocks while the bounded queue is
//     |  full (backpressure) and may evict queued lower-priority work;
//     |  batch sheds (OverloadError) when the queue is full; best-effort
//     |  sheds when pressure crosses the shed watermark. try_submit bounds
//     |  the wait for every class. Admitted requests get a future.
//   dynamic batcher (worker thread)
//     |  picks the servable queue with the most urgent (class, arrival)
//     |  head, waits for lane fill up to `batch_deadline` (capped by any
//     |  per-request deadline) or `max_batch`, drops already-expired
//     |  requests (DeadlineExceededError), then pops the batch in
//     |  class-major FIFO order.
//   engine run with graceful degradation
//     |  a failed primary run retries with exponential backoff, then
//     |  falls back to the scalar-oracle engine (byte-identical outputs,
//     |  pinned by test); if that fails too the batch's futures fail
//     |  individually — the worker thread never crashes.
//   future resolves with InferenceResult (or DeadlineExceededError when the
//     |  result arrived after the request's deadline)
//
// Shutdown is drain-then-join: stop() (or the destructor) refuses new
// submissions with ShutdownError, workers finish every queued request, then
// exit. Submitters blocked on a full queue at shutdown get ShutdownError
// instead of deadlocking.
//
// Fault injection (serve/fault_injector.hpp) is compiled in always and
// disabled by default: ServeOptions::faults can make engine runs throw,
// batches stall and admission observe phantom queue pressure, all
// deterministically from a seed — the overload stress tests drive every
// degradation path through it.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "nn/tensor.hpp"
#include "serve/fault_injector.hpp"
#include "serve/model_registry.hpp"
#include "sim/functional.hpp"

namespace loom::serve {

/// Priority classes, highest first. Interactive work is never shed at
/// admission (it blocks, and may evict lower classes); batch work sheds
/// instead of blocking when the queue is full; best-effort work sheds as
/// soon as queue pressure crosses ServeOptions::shed_watermark.
enum class Priority : int { kInteractive = 0, kBatch = 1, kBestEffort = 2 };
inline constexpr int kPriorityClasses = 3;

[[nodiscard]] const char* priority_name(Priority p) noexcept;

/// Per-request submission options.
struct SubmitOptions {
  Priority priority = Priority::kInteractive;
  /// Relative deadline for the *result* (0 = none). Checked at admission
  /// (caps how long the batcher holds the request's batch open), at batch
  /// formation (expired requests are dropped without running) and at
  /// completion (late results resolve as DeadlineExceededError).
  std::chrono::nanoseconds deadline{0};
  /// Absolute deadline (steady clock; max() = none). The effective deadline
  /// is the earlier of this and the relative `deadline`. A submission whose
  /// absolute deadline has *already passed* is rejected immediately with
  /// DeadlineExceededError — counted under `rejected`, never queued — so a
  /// caller retrying across shards with a fixed budget cannot enqueue work
  /// that is guaranteed dead on arrival.
  std::chrono::steady_clock::time_point deadline_at =
      std::chrono::steady_clock::time_point::max();
};

struct ServeOptions {
  /// Most requests coalesced into one engine run (per model).
  int max_batch = 8;
  /// How long the batcher holds an underfull batch open for late arrivals.
  /// Zero flushes immediately (batches still form under bursty load).
  std::chrono::microseconds batch_deadline{200};
  /// Bound on requests pending across all models. Interactive submit()
  /// blocks (never drops) when the queue is full; lower classes shed.
  std::size_t queue_depth = 64;
  /// Queue-pressure fraction of `queue_depth` above which best-effort
  /// admissions shed with OverloadError instead of queueing.
  double shed_watermark = 0.75;
  /// Executor threads, each with its own functional engine. The engines'
  /// (group, slab) fan-out additionally uses the shared pool per
  /// `engine.jobs`.
  int workers = 1;
  /// Re-attempts of the worker's primary engine (its configured backend)
  /// after a failed run, with exponential backoff, before falling back to
  /// the scalar oracle.
  int engine_retries = 1;
  /// Backoff before the first retry; doubles per subsequent retry.
  std::chrono::microseconds retry_backoff{100};
  /// Per-worker functional engine configuration.
  sim::FunctionalOptions engine;
  /// Deterministic fault injection (disabled by default — all
  /// probabilities zero).
  FaultPlan faults;
};

/// What a resolved request future carries.
struct InferenceResult {
  nn::Tensor output;               ///< byte-identical to a solo run_network
  int batch_size = 0;              ///< requests that shared the engine run
  std::chrono::nanoseconds queue_wait{0};  ///< submit -> batch formation
  std::chrono::nanoseconds run_time{0};    ///< engine wall clock of the batch
  Priority priority = Priority::kInteractive;
  /// True when the batch ran on the scalar-oracle fallback engine after the
  /// primary attempts failed (outputs are byte-identical either way).
  bool via_fallback = false;
  /// Engine runs attempted for the batch (1 = first try succeeded).
  int engine_attempts = 1;
  /// Index of the shard that served the request when routed through a
  /// ShardRouter; -1 for direct InferenceServer submissions.
  int shard = -1;
};

/// Per-priority-class accounting. After a drain,
/// submitted == completed + shed + timed_out + failed; `rejected` requests
/// were refused at admission and never entered the queue.
struct ClassStats {
  std::uint64_t submitted = 0;  ///< admitted to the queue
  std::uint64_t rejected = 0;   ///< refused at admission and never queued
                                ///< (OverloadError shed, or
                                ///< DeadlineExceededError for a submission
                                ///< whose absolute deadline had already
                                ///< passed)
  std::uint64_t shed = 0;       ///< evicted from the queue for a
                                ///< higher-priority arrival
  std::uint64_t timed_out = 0;  ///< future resolved DeadlineExceededError
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< future resolved with another exception
  LatencyHistogram queue_wait_ns;  ///< submit -> batch formation, completed
  LatencyHistogram run_time_ns;    ///< engine wall clock, completed
  LatencyHistogram latency_ns;     ///< submit -> result, completed
};

/// Aggregate serving statistics (monotonic; snapshot under the server lock).
/// Scalar counters are sums over `by_class`.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t batches = 0;        ///< engine runs that formed
  std::uint64_t batch_requests = 0; ///< requests across formed batches
  std::uint64_t retries = 0;        ///< primary-engine re-attempts
  std::uint64_t fallbacks = 0;      ///< batches degraded to the scalar oracle
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t peak_batch = 0;
  /// Layer runs per functional kernel ("scalar", "gemm"): which kernel
  /// actually served each weighted layer, fallback runs included — the
  /// observable trace of degradation decisions.
  std::map<std::string, std::uint64_t> backend_layer_runs;
  std::array<ClassStats, kPriorityClasses> by_class;

  [[nodiscard]] const ClassStats& for_priority(Priority p) const {
    return by_class[static_cast<std::size_t>(p)];
  }

  /// Mean requests per engine run — the lane-fill the batcher achieved.
  [[nodiscard]] double mean_batch() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(batch_requests) /
                              static_cast<double>(batches);
  }

  /// Submit-to-result latency over completed requests of every class.
  [[nodiscard]] LatencyHistogram latency_all() const noexcept {
    LatencyHistogram h;
    for (const ClassStats& c : by_class) h.merge(c.latency_ns);
    return h;
  }
};

class InferenceServer {
 public:
  /// `models` must outlive the server. Worker threads start immediately.
  explicit InferenceServer(const ModelRegistry& models, ServeOptions opts = {});

  /// Drains and joins (stop()).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueue one request for `model`. Interactive requests block while the
  /// queue is full (after trying to evict queued lower-priority work);
  /// batch and best-effort requests throw OverloadError instead of
  /// blocking. Throws ShutdownError when the server is stopping and
  /// ConfigError for unknown models or input-shape mismatches.
  [[nodiscard]] std::future<InferenceResult> submit(const std::string& model,
                                                    nn::Tensor input,
                                                    SubmitOptions sopts = {});

  /// Same, for a model handle obtained from the registry (skips the name
  /// lookup; the handle does not need to be registered).
  [[nodiscard]] std::future<InferenceResult> submit(
      std::shared_ptr<const Model> model, nn::Tensor input,
      SubmitOptions sopts = {});

  /// Bounded-wait admission: like submit(), but waits at most `timeout`
  /// for the request to become admissible (queue space / pressure below
  /// the class watermark) and throws OverloadError when the wait expires.
  /// A zero timeout probes admission without waiting.
  [[nodiscard]] std::future<InferenceResult> try_submit(
      std::shared_ptr<const Model> model, nn::Tensor input,
      std::chrono::nanoseconds timeout, SubmitOptions sopts = {});

  /// Refuse new submissions, run every already-queued request to
  /// completion, join the workers. Idempotent.
  void stop();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServeOptions& options() const noexcept { return opts_; }
  /// Injected-fault counters (all zero when ServeOptions::faults is
  /// disabled).
  [[nodiscard]] const FaultInjector& fault_injector() const noexcept {
    return injector_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::shared_ptr<const Model> model;
    nn::Tensor input;
    std::promise<InferenceResult> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline = Clock::time_point::max();  ///< absolute
    Priority priority = Priority::kInteractive;
    std::uint64_t sequence = 0;  ///< arrival order, for oldest-first pick

    [[nodiscard]] bool has_deadline() const noexcept {
      return deadline != Clock::time_point::max();
    }
  };

  /// Per-model queues, one FIFO per priority class. Keyed by Model pointer
  /// identity — one registry entry, one batching domain. `claimed` marks a
  /// queue some worker is forming a batch from (possibly holding it open
  /// for its deadline): other workers skip it and serve other models
  /// instead of camping on the same wait, and nobody but the claimer may
  /// erase the map node. Admission-control eviction may still remove
  /// requests from a claimed queue (the claimer re-checks under the lock).
  struct ModelQueue {
    std::array<std::deque<Pending>, kPriorityClasses> pending;
    bool claimed = false;

    [[nodiscard]] std::size_t size() const noexcept;
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    /// Highest-priority non-empty class (kPriorityClasses when empty).
    [[nodiscard]] int best_class() const noexcept;
    /// Earliest arrival over all classes (for the batch-deadline hold).
    [[nodiscard]] Clock::time_point earliest_enqueued() const noexcept;
    /// Earliest per-request deadline over all pending (max() when none).
    [[nodiscard]] Clock::time_point earliest_deadline() const noexcept;
  };

  void worker_loop();
  /// The unclaimed queue whose (best class, head arrival) key is most
  /// urgent (nullptr when nothing is servable by this worker right now).
  [[nodiscard]] ModelQueue* best_queue();
  /// Admission-control core shared by submit/try_submit. `bounded` waits
  /// until `admit_by`; unbounded interactive waits forever, unbounded
  /// lower classes shed immediately.
  [[nodiscard]] std::future<InferenceResult> enqueue(
      std::shared_ptr<const Model> model, nn::Tensor input,
      SubmitOptions sopts, bool bounded, Clock::time_point admit_by);
  /// Evict the newest queued request of the lowest class strictly below
  /// `incoming` (across all models) into `evicted`. Caller holds the lock.
  bool evict_lower_priority(Priority incoming, std::vector<Pending>& evicted);
  /// Move every expired request of `q` into `expired`, recording timeouts.
  /// Caller holds the lock.
  void sweep_expired(ModelQueue& q, Clock::time_point now,
                     std::vector<Pending>& expired);
  [[nodiscard]] std::size_t shed_threshold() const noexcept;

  const ModelRegistry& models_;
  ServeOptions opts_;
  FaultInjector injector_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< queues non-empty or stopping
  std::condition_variable space_cv_;  ///< queue depth dropped below bound
  std::unordered_map<const Model*, ModelQueue> queues_;
  std::size_t total_pending_ = 0;
  std::uint64_t next_sequence_ = 0;
  bool stopping_ = false;
  ServerStats stats_;

  std::once_flag join_once_;
  std::vector<std::thread> workers_;
};

}  // namespace loom::serve
