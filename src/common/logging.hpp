// Tiny leveled logger. Experiments use it for progress reporting; only
// warnings and errors print, so test output stays clean.
#pragma once

#include <sstream>
#include <string>

namespace loom {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Minimum level (kWarn); messages below it are dropped.
[[nodiscard]] LogLevel log_level() noexcept;

/// Emit one log line. Thread-safe: each line is formatted first, then
/// written to std::cerr whole under a lock, so lines from concurrent
/// threads never interleave.
void log_message(LogLevel level, const std::string& message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace loom

#define LOOM_LOG_DEBUG ::loom::detail::LogLine(::loom::LogLevel::kDebug)
#define LOOM_LOG_INFO ::loom::detail::LogLine(::loom::LogLevel::kInfo)
#define LOOM_LOG_WARN ::loom::detail::LogLine(::loom::LogLevel::kWarn)
#define LOOM_LOG_ERROR ::loom::detail::LogLine(::loom::LogLevel::kError)
