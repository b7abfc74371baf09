#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/cpuid.hpp"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + key);
    }
    key = key.substr(2);
    if (i + 1 >= argc) throw std::invalid_argument("missing value for --" + key);
    values_[key] = argv[++i];
  }
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Args::num(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  const double v = std::stod(it->second, &used);
  if (used != it->second.size()) {
    throw std::invalid_argument("--" + key + " is not a number");
  }
  return v;
}

double Args::num(const std::string& key) const {
  if (!values_.contains(key)) throw std::invalid_argument("--" + key + " is required");
  return num(key, 0.0);
}

std::int64_t Args::integer(const std::string& key, std::int64_t fallback) const {
  const double v = num(key, static_cast<double>(fallback));
  if (v != std::floor(v)) {
    throw std::invalid_argument("--" + key + " is not a whole number");
  }
  return static_cast<std::int64_t>(v);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// ---- Tracer ----------------------------------------------------------------

struct Tracer::Impl {
  struct Span {
    std::uint64_t id = 0, parent = 0;
    std::int64_t request = -1;
    std::string name;
    Clock::time_point start, end;
    std::size_t thread = 0;
  };
  Clock::time_point origin = Clock::now();
  std::atomic<std::uint64_t> next{1};
  mutable std::mutex mutex;
  std::vector<Span> spans;
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  return impl_->next.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(std::uint64_t id, const std::string& name,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent, std::int64_t request) {
  if (!enabled_) return;
  const std::size_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spans.push_back(Impl::Span{id, parent, request, name, start, end, thread});
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->spans.size();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::map<std::size_t, int> tids;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Impl::Span& s : impl_->spans) {
    const int tid = tids.emplace(s.thread, static_cast<int>(tids.size())).first->second;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - impl_->origin).count();
    };
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%lld}}",
                  first ? "" : ",\n", s.name.c_str(), tid, us(s.start),
                  us(s.end) - us(s.start),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.request));
    out << line;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(std::string name, std::uint64_t parent,
                       std::int64_t request)
    : name_(std::move(name)), parent_(parent), request_(request) {
  Tracer& t = Tracer::instance();
  if (t.enabled()) {
    id_ = t.next_id();
    start_ = Clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) {
    Tracer::instance().record(id_, name_, start_, Clock::now(), parent_, request_);
  }
}

// ---- Report ----------------------------------------------------------------

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print() const {
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ",") << json_string(name) << ":{\"value\":"
       << json_number(m.value) << ",\"unit\":" << json_string(m.unit)
       << ",\"samples\":" << m.samples << "}";
    first = false;
  }
  os << "},\"notes\":{";
  first = true;
  for (const auto& [key, value] : notes) {
    os << (first ? "" : ",") << json_string(key) << ":" << json_string(value);
    first = false;
  }
  os << "},\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? "," : "") << json_string(errors[i]);
  }
  os << "]}";
  std::printf("RESULT %s\n", os.str().c_str());
  std::fflush(stdout);
}

void add_build_notes(Report& report) {
#if defined(__clang__)
  report.notes["host.compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  report.notes["host.compiler"] = std::string("gcc ") + __VERSION__;
#else
  report.notes["host.compiler"] = "unknown";
#endif
  report.notes["host.build_type"] = PERFBENCH_BUILD_TYPE;
  report.notes["host.simd_tier"] =
      loom::common::simd_level_name(loom::common::simd_level());
}

}  // namespace perfbench
