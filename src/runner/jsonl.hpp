// Append-only JSON Lines output for per-run experiment records.
//
// One self-contained JSON object per line (https://jsonlines.org): the
// format every post-hoc analysis stack (jq, pandas, DuckDB) ingests
// directly and that survives a killed campaign — every complete line is a
// complete record. JsonlWriter is safe for concurrent writers: each record
// is composed off-line, then appended and flushed as a single write under
// a mutex, so lines are never torn or interleaved.
//
// Number formatting is deterministic: shortest round-trip representation
// for doubles, so equal values always serialize to equal bytes (part of
// the runner's determinism contract — see docs/runner.md).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace kar::runner {

/// Incremental `{"key":value,...}` builder preserving insertion order.
/// Keys are escaped; callers pick the typed appender for the value.
class JsonObject {
 public:
  JsonObject() = default;
  /// Reserves `capacity` bytes up front, so an object of known size is
  /// written into a single allocation.
  explicit JsonObject(std::size_t capacity) { body_.reserve(capacity); }

  JsonObject& field(std::string_view key, std::string_view string_value);
  JsonObject& field(std::string_view key, const char* string_value) {
    return field(key, std::string_view(string_value));
  }
  JsonObject& field(std::string_view key, double number);
  JsonObject& field(std::string_view key, std::uint64_t number);
  JsonObject& field(std::string_view key, std::int64_t number);
  JsonObject& field(std::string_view key, int number) {
    return field(key, static_cast<std::int64_t>(number));
  }
  JsonObject& field(std::string_view key, bool boolean);
  /// Splices `json` in verbatim (for nested objects/arrays).
  JsonObject& raw(std::string_view key, std::string_view json);
  /// Splices pre-rendered fields (`"k":v,...`, no braces) in verbatim.
  JsonObject& fields(std::string_view json);
  /// Starts field `key` and returns the body, for the caller to append
  /// the field's JSON value in place rather than compose it apart.
  std::string& value(std::string_view key);

  /// The finished `{...}` text.
  [[nodiscard]] std::string str() const& { return body_ + "}"; }
  /// The finished text, moved out of the object without a copy.
  [[nodiscard]] std::string str() &&;

 private:
  void begin_field(std::string_view key);
  std::string body_ = "{";
};

/// Thread-safe appender of complete JSONL records to a stream or file.
class JsonlWriter {
 public:
  /// Writes to a caller-owned stream (not owned; must outlive the writer).
  explicit JsonlWriter(std::ostream& out);

  /// Opens `path` for appending (or truncating). Throws std::runtime_error
  /// when the file cannot be opened.
  explicit JsonlWriter(const std::string& path, bool append = false);

  /// Appends one record as a single line. `json` must be a complete JSON
  /// value without trailing newline; the writer adds the '\n' and flushes,
  /// all under the writer lock — concurrent callers never tear each
  /// other's lines.
  void write(std::string_view json);

  void write(const JsonObject& object) { write(object.str()); }

  [[nodiscard]] std::size_t lines_written() const noexcept;

 private:
  std::unique_ptr<std::ofstream> owned_;  // set iff constructed from a path
  std::ostream* out_;
  mutable std::mutex mutex_;
  std::size_t lines_ = 0;  // guarded by mutex_
};

}  // namespace kar::runner
