// Shared pieces of the perfbench driver: command-line access, timing and
// percentile helpers, the in-memory span recorder behind the traced run, and
// the result record each workload prints as its last line (run.py parses it).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// `--key value` pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double num(const std::string& key, double fallback) const;
  /// A number that must be given; throws std::invalid_argument otherwise.
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] std::int64_t integer(const std::string& key,
                                     std::int64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] double ms_since(Clock::time_point t0);

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for an
/// empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// User + system CPU seconds this process has used so far.
[[nodiscard]] double cpu_seconds();

/// Spans kept in memory while the traced run goes, written out once at the
/// end as Chrome trace-event JSON. Disabled recorders cost one branch.
class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// A fresh span id (ids start at 1; 0 means "no parent").
  std::uint64_t next_id();
  /// Record a finished span. Safe from several threads.
  void record(std::uint64_t id, const std::string& name,
              Clock::time_point start, Clock::time_point end,
              std::uint64_t parent = 0, std::int64_t request = -1);

  [[nodiscard]] std::size_t size() const;
  /// Write every span; returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Tracer();
  bool enabled_ = false;
  struct Impl;
  Impl* impl_;  // leaked with the process, like the library's singletons
};

/// Times one call into a layer when tracing is on; the span is recorded when
/// the scope ends, so spans opened inside it can name it as their parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, std::uint64_t parent = 0,
                      std::int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::string name_;
  std::uint64_t parent_;
  std::int64_t request_;
  std::uint64_t id_ = 0;
  Clock::time_point start_;
};

/// One workload's outcome: metrics with unit and sample count, free-form
/// notes (kernel choices, digests, host data), and the correctness verdict.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::int64_t samples = 1;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> notes;
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  /// Print as a single `RESULT {json}` line.
  void print() const;
};

/// Compiler, build type and effective SIMD tier of this binary.
void add_build_notes(Report& report);

}  // namespace perfbench
