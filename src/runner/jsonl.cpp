#include "runner/jsonl.hpp"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"

namespace kar::runner {

namespace {

template <typename Int>
void append_integer(std::string& out, Int number) {
  char buf[24];  // a 64-bit integer takes at most 20 digits and a sign
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), number);
  out.append(buf, end);
}

}  // namespace

void JsonObject::begin_field(std::string_view key) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  common::append_json_escaped(body_, key);
  body_ += "\":";
}

JsonObject& JsonObject::field(std::string_view key, std::string_view value) {
  begin_field(key);
  body_ += '"';
  common::append_json_escaped(body_, value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, double number) {
  begin_field(key);
  body_ += common::json_double(number);
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, std::uint64_t number) {
  begin_field(key);
  append_integer(body_, number);
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, std::int64_t number) {
  begin_field(key);
  append_integer(body_, number);
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, bool boolean) {
  begin_field(key);
  body_ += boolean ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view key, std::string_view json) {
  begin_field(key);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::fields(std::string_view json) {
  if (body_.size() > 1) body_ += ',';
  body_ += json;
  return *this;
}

std::string& JsonObject::value(std::string_view key) {
  begin_field(key);
  return body_;
}

std::string JsonObject::str() && {
  body_ += '}';
  return std::move(body_);
}

JsonlWriter::JsonlWriter(std::ostream& out) : out_(&out) {}

JsonlWriter::JsonlWriter(const std::string& path, bool append)
    : owned_(std::make_unique<std::ofstream>(
          path, append ? std::ios::app : std::ios::trunc)),
      out_(owned_.get()) {
  if (!*owned_) {
    throw std::runtime_error("JsonlWriter: cannot open " + path);
  }
}

void JsonlWriter::write(std::string_view json) {
  // Compose the full line first so the stream sees exactly one write per
  // record; the lock makes the append + flush atomic w.r.t. other writers.
  std::string line;
  line.reserve(json.size() + 1);
  line.append(json);
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mutex_);
  out_->write(line.data(), static_cast<std::streamsize>(line.size()));
  out_->flush();
  ++lines_;
}

std::size_t JsonlWriter::lines_written() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

}  // namespace kar::runner
