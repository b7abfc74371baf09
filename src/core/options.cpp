#include "core/options.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace loom::core {

namespace {

/// Parses all of `value` with `parse` (a strtoll/strtod-style reader) and
/// throws ConfigError naming `--key` when any of it is left over, nothing
/// was read, or the number is out of range.
template <typename Parse>
auto parse_whole(const std::string& key, const std::string& value,
                 const char* kind, Parse parse) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const auto parsed = parse(begin, &end);
  if (value.empty() || end != begin + value.size() || errno == ERANGE) {
    throw ConfigError("--" + key + " expects " + kind + ", got '" + value +
                      "'");
  }
  return parsed;
}

}  // namespace

std::int64_t parse_int(const std::string& key, const std::string& value) {
  return parse_whole(key, value, "an integer", [](const char* s, char** end) {
    return static_cast<std::int64_t>(std::strtoll(s, end, 10));
  });
}

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Options::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_int(key, it->second);
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole(key, it->second, "a number",
                     [](const char* s, char** end) { return std::strtod(s, end); });
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> Options::get_list(
    const std::string& key, const std::vector<std::string>& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<std::string> out;
  std::string current;
  for (const char ch : it->second) {
    if (ch == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += ch;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

}  // namespace loom::core
