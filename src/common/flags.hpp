// Minimal command-line flag parsing for bench/example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`; positional arguments are collected. Flags are not declared
// up front: a binary parses its command line with parse_cli(), reads every
// flag it knows, then rejects the rest — and any value it could not
// parse — with report_unread() (exit 2). This keeps experiment harnesses
// self-describing without an external dependency.
#pragma once

#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"

namespace kar::common {

/// Parsed command line: `--key=value` pairs plus positional arguments.
class Flags {
 public:
  Flags() = default;

  /// Parses a program's own command line, whose reads end in
  /// report_unread(): a getter records a value it cannot parse and returns
  /// its fallback, and report_unread() names it as a usage error, so a
  /// typo such as `--runs=abc` exits 2 instead of escaping main.
  static Flags parse_cli(int argc, const char* const* argv) {
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
    if (!value) return malformed(name, "not a number", fallback);
    return *value;
  }

  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    const auto it = find(name);
    if (it == values_.end()) return fallback;
    const auto value = parse_double(it->second);
    if (!value) return malformed(name, "not a number", fallback);
    return *value;
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const {
    const auto it = find(name);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
    if (v == "false" || v == "0" || v == "no" || v == "off") return false;
    return malformed(name, "not a boolean", fallback);
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

  /// Values a getter could not parse, as `flag --<name>: <problem>:
  /// <value>`.
  [[nodiscard]] const std::vector<std::string>& malformed() const {
    return malformed_;
  }

 private:
  std::map<std::string, std::string>::const_iterator find(
      const std::string& name) const {
    read_.insert(name);
    return values_.find(name);
  }

  template <typename T>
  T malformed(const std::string& name, const char* problem, T fallback) const {
    malformed_.push_back("flag --" + name + ": " + problem + ": " +
                         values_.at(name));
    return fallback;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  /// Names asked for so far (see unread()).
  mutable std::set<std::string> read_;
  mutable std::vector<std::string> malformed_;
};

/// Names each malformed() value and each unread() flag on stderr, as
/// `<program>: flag --<name>: ...` and `<program>: unknown flag --<name>`,
/// and returns true when there is one; the caller then exits 2. Call it
/// once every flag the program knows has been read, before any branch
/// that reads only some of them, so none is reported by mistake.
[[nodiscard]] inline bool report_unread(const Flags& flags,
                                        std::string_view program) {
  for (const std::string& problem : flags.malformed()) {
    std::cerr << program << ": " << problem << '\n';
  }
  const std::vector<std::string> unknown = flags.unread();
  for (const std::string& name : unknown) {
    std::cerr << program << ": unknown flag --" << name << '\n';
  }
  return !unknown.empty() || !flags.malformed().empty();
}

}  // namespace kar::common
