#include "common/logging.hpp"

#include <iostream>
#include <mutex>

namespace loom {

namespace {
const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() noexcept { return LogLevel::kWarn; }

void log_message(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  const std::string line =
      std::string("[loom ") + level_name(level) + "] " + message + '\n';
  static std::mutex write_mutex;
  const std::lock_guard<std::mutex> lock(write_mutex);
  std::cerr.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace loom
