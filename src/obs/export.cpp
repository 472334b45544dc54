#include "obs/export.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <set>
#include <stdexcept>

#include "common/json.hpp"

namespace kar::obs {

namespace {

using common::json_double;
using common::json_escape;

/// `{"k":"v",...}` from the record's args; values that parse as plain
/// numbers are emitted unquoted so Perfetto shows them as numbers.
std::string args_json(const TraceRecord& record) {
  std::string out = "{";
  bool first = true;
  const auto is_number = [](const std::string& text) {
    if (text.empty()) return false;
    double parsed = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    return ec == std::errc() && end == text.data() + text.size();
  };
  if (!record.node.empty()) {
    out += "\"node\":\"" + json_escape(record.node) + '"';
    first = false;
  }
  if (record.id != 0) {
    if (!first) out += ',';
    out += "\"id\":" + std::to_string(record.id);
    first = false;
  }
  for (const auto& [key, value] : record.args) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(key) + "\":";
    if (is_number(value)) {
      out += value;
    } else {
      out += '"' + json_escape(value) + '"';
    }
  }
  out += '}';
  return out;
}

/// One trace_event object. `ph` is "X" for spans, "C" for counter samples,
/// "i" for instants; `ts`/`dur` are microseconds.
std::string chrome_event_json(const TraceRecord& record, int pid) {
  std::string out = "{";
  out += "\"name\":\"" + json_escape(record.name) + "\"";
  out += ",\"cat\":\"" + std::string(to_string(record.cat)) + "\"";
  const char* ph = record.counter ? "C" : (record.dur_s > 0.0 ? "X" : "i");
  out += ",\"ph\":\"";
  out += ph;
  out += "\"";
  out += ",\"ts\":" + json_double(record.ts_s * 1e6);
  if (record.dur_s > 0.0 && !record.counter) {
    out += ",\"dur\":" + json_double(record.dur_s * 1e6);
  }
  out += ",\"pid\":" + std::to_string(pid);
  out += ",\"tid\":" + std::to_string(record.tid);
  if (!record.counter && record.dur_s <= 0.0) {
    out += ",\"s\":\"t\"";  // instant scope: thread (only meaningful on "i")
  }
  out += ",\"args\":" + args_json(record);
  out += '}';
  return out;
}

std::string metadata_event(const char* name, int pid, std::uint32_t tid,
                           const std::string& value) {
  std::string out = "{\"name\":\"";
  out += name;
  out += "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid);
  out += ",\"tid\":" + std::to_string(tid);
  out += ",\"args\":{\"name\":\"" + json_escape(value) + "\"}}";
  return out;
}

}  // namespace

std::string trace_record_json(const TraceRecord& record) {
  std::string out = "{";
  out += "\"cat\":\"" + std::string(to_string(record.cat)) + "\"";
  out += ",\"name\":\"" + json_escape(record.name) + "\"";
  if (!record.node.empty()) {
    out += ",\"node\":\"" + json_escape(record.node) + "\"";
  }
  out += ",\"ts_s\":" + json_double(record.ts_s);
  if (record.dur_s > 0.0) out += ",\"dur_s\":" + json_double(record.dur_s);
  out += ",\"tid\":" + std::to_string(record.tid);
  if (record.id != 0) out += ",\"id\":" + std::to_string(record.id);
  for (const auto& [key, value] : record.args) {
    out += ",\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
  }
  out += '}';
  return out;
}

void write_trace_jsonl(std::ostream& out,
                       const std::vector<TraceRecord>& records) {
  for (const TraceRecord& record : records) {
    out << trace_record_json(record) << '\n';
  }
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<ChromeTraceProcess>& processes) {
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const std::string& event) {
    if (!first) out << ",\n";
    first = false;
    out << event;
  };
  int pid = 1;
  for (const ChromeTraceProcess& process : processes) {
    emit(metadata_event("process_name", pid, 0, process.name));
    std::set<std::uint32_t> named_tids;
    for (const TraceRecord& record : process.records) {
      if (named_tids.insert(record.tid).second) {
        emit(metadata_event("thread_name", pid, record.tid,
                            "run " + std::to_string(record.tid)));
      }
      emit(chrome_event_json(record, pid));
    }
    ++pid;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceRecord>& records) {
  write_chrome_trace(out, std::vector<ChromeTraceProcess>{{"kar", records}});
}

void write_prometheus_file(const std::string& path,
                           const MetricsSnapshot& snapshot) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("write_prometheus_file: cannot open " + path);
  out << snapshot.prometheus_text();
}

void write_chrome_trace_file(const std::string& path,
                             const std::vector<ChromeTraceProcess>& processes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("write_chrome_trace_file: cannot open " + path);
  write_chrome_trace(out, processes);
}

std::string http_scrape_response(const MetricsSnapshot& snapshot) {
  const std::string body = snapshot.prometheus_text();
  std::string out;
  out.reserve(body.size() + 160);
  out += "HTTP/1.0 200 OK\r\n";
  out += "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace kar::obs
