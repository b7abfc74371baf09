// Logger: messages below kWarn are dropped, and each line is written whole,
// so concurrent logging never interleaves characters of two lines.
#include <gtest/gtest.h>

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"

namespace loom {
namespace {

/// Redirects std::cerr into a buffer for the scope's lifetime and restores
/// the stream afterwards.
class CapturedLog {
 public:
  CapturedLog() : saved_buf_(std::cerr.rdbuf(out_.rdbuf())) {}
  ~CapturedLog() { std::cerr.rdbuf(saved_buf_); }
  CapturedLog(const CapturedLog&) = delete;
  CapturedLog& operator=(const CapturedLog&) = delete;

  [[nodiscard]] std::string text() const { return out_.str(); }

 private:
  std::ostringstream out_;
  std::streambuf* saved_buf_;
};

TEST(Logging, LevelFiltersMessages) {
  const CapturedLog log;
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  LOOM_LOG_INFO << "dropped";
  LOOM_LOG_WARN << "kept " << 42;
  EXPECT_EQ(log.text(), "[loom WARN] kept 42\n");
}

TEST(Logging, ConcurrentLinesStayWhole) {
  constexpr int kWriters = 4;
  constexpr int kLines = 300;
  const CapturedLog log;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        LOOM_LOG_WARN << "writer " << t << " line " << i
                      << " payload-payload-payload";
      }
    });
  }
  for (auto& w : writers) w.join();

  // Every captured line is exactly one whole message.
  std::istringstream lines(log.text());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    int t = -1;
    int i = -1;
    const bool parsed =
        std::sscanf(line.c_str(), "[loom WARN] writer %d line %d", &t, &i) == 2;
    EXPECT_TRUE(parsed && line == "[loom WARN] writer " + std::to_string(t) +
                                      " line " + std::to_string(i) +
                                      " payload-payload-payload")
        << line;
    ++count;
  }
  EXPECT_EQ(count, kWriters * kLines);
}

}  // namespace
}  // namespace loom
