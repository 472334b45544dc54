// Minimal command-line flag parsing for bench/example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`; positional arguments are collected. Flags are not declared
// up front: a binary reads every flag it knows, then rejects the rest with
// report_unread() (exit 2). This keeps experiment harnesses
// self-describing without an external dependency.
#pragma once

#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"

namespace kar::common {

/// Parsed command line: `--key=value` pairs plus positional arguments.
class Flags {
 public:
  Flags() = default;

  /// Parses argv. Throws std::invalid_argument on malformed input.
  static Flags parse(int argc, const char* const* argv) {
    Flags flags;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        flags.positional_.push_back(std::move(arg));
        continue;
      }
      arg.erase(0, 2);
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags.values_[arg] = argv[++i];
      } else if (arg.rfind("no-", 0) == 0) {
        flags.values_[arg.substr(3)] = "false";
      } else {
        flags.values_[arg] = "true";
      }
    }
    return flags;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return find(name) != values_.end();
  }

  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback) const {
    const auto it = find(name);
    return it == values_.end() ? std::move(fallback) : it->second;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const {
    const auto it = find(name);
    if (it == values_.end()) return fallback;
    const auto value = parse_i64(it->second);
    if (!value) {
      throw std::invalid_argument("flag --" + name +
                                  ": not a number: " + it->second);
    }
    return *value;
  }

  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    const auto it = find(name);
    if (it == values_.end()) return fallback;
    const auto value = parse_double(it->second);
    if (!value) {
      throw std::invalid_argument("flag --" + name +
                                  ": not a number: " + it->second);
    }
    return *value;
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const {
    const auto it = find(name);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
    if (v == "false" || v == "0" || v == "no" || v == "off") return false;
    throw std::invalid_argument("flag --" + name + ": not a boolean: " + v);
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Flags given on the command line that no has() or get_*() call asked
  /// for, ascending (a `--no-name` flag is listed as `name`).
  [[nodiscard]] std::vector<std::string> unread() const {
    std::vector<std::string> names;
    for (const auto& [name, value] : values_) {
      if (!read_.contains(name)) names.push_back(name);
    }
    return names;
  }

 private:
  std::map<std::string, std::string>::const_iterator find(
      const std::string& name) const {
    read_.insert(name);
    return values_.find(name);
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  /// Names asked for so far (see unread()).
  mutable std::set<std::string> read_;
};

/// Names each unread() flag on stderr as `<program>: unknown flag --<name>`
/// and returns true when there is one; the caller then exits 2. Call it
/// once every flag the program knows has been read, before any branch
/// that reads only some of them, so none is reported by mistake.
[[nodiscard]] inline bool report_unread(const Flags& flags,
                                        std::string_view program) {
  const std::vector<std::string> unknown = flags.unread();
  for (const std::string& name : unknown) {
    std::cerr << program << ": unknown flag --" << name << '\n';
  }
  return !unknown.empty();
}

}  // namespace kar::common
