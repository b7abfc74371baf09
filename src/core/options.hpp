// Minimal command-line option parsing for the bench and example binaries:
// --key=value / --flag pairs, with typed getters and an automatic usage
// string. No external dependencies. A numeric getter throws ConfigError
// naming the flag when its value is not wholly a number.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace loom::core {

/// `value` as a base-10 integer; ConfigError naming `--key` when it is not
/// wholly one.
[[nodiscard]] std::int64_t parse_int(const std::string& key,
                                     const std::string& value);

class Options {
 public:
  Options(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list value.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& key, const std::vector<std::string>& fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace loom::core
