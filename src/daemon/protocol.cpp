#include "daemon/protocol.hpp"

#include <array>
#include <stdexcept>

#include "common/parse.hpp"
#include "runner/jsonl.hpp"

namespace kar::daemon {

namespace {

/// A request line's first tokens and its token count. No verb takes more
/// than two arguments, so later tokens matter only to the arity check.
struct Tokens {
  std::array<std::string_view, 3> first;
  std::size_t count = 0;
};

/// Whitespace-token split (space and tab; CR tolerated at line end so the
/// protocol works over CRLF transports too).
Tokens tokenize(std::string_view line) {
  Tokens tokens;
  std::size_t i = 0;
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r';
  };
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i == start) continue;
    if (tokens.count < tokens.first.size()) {
      tokens.first[tokens.count] = line.substr(start, i - start);
    }
    ++tokens.count;
  }
  return tokens;
}

ParsedRequest fail(std::string_view code, std::string message) {
  ParsedRequest out;
  out.ok = false;
  out.error_code = code;
  out.error = std::move(message);
  return out;
}

struct VerbSpec {
  std::string_view name;
  Verb verb;
  std::size_t min_args;
  std::size_t max_args;
};

constexpr std::array<VerbSpec, 12> kVerbs{{
    {"ping", Verb::kPing, 0, 0},
    {"encode", Verb::kEncode, 2, 2},
    {"install", Verb::kInstall, 2, 2},
    {"withdraw", Verb::kWithdraw, 1, 1},
    {"query", Verb::kQuery, 1, 1},
    {"link-up", Verb::kLinkUp, 2, 2},
    {"link-down", Verb::kLinkDown, 2, 2},
    {"snapshot", Verb::kSnapshot, 0, 1},
    {"compact", Verb::kCompact, 0, 0},
    {"stats", Verb::kStats, 0, 0},
    {"metrics", Verb::kMetrics, 0, 0},
    {"shutdown", Verb::kShutdown, 0, 0},
}};

}  // namespace

std::string_view to_string(Verb verb) {
  for (const VerbSpec& spec : kVerbs) {
    if (spec.verb == verb) return spec.name;
  }
  return "unknown";
}

ParsedRequest parse_request(std::string_view line) {
  const Tokens tokenized = tokenize(line);
  if (tokenized.count == 0) return fail("empty", "empty request line");
  const auto& tokens = tokenized.first;
  const VerbSpec* spec = nullptr;
  for (const VerbSpec& candidate : kVerbs) {
    if (candidate.name == tokens.front()) {
      spec = &candidate;
      break;
    }
  }
  if (spec == nullptr) {
    return fail("unknown-verb", "unknown verb: " + std::string(tokens.front()));
  }
  const std::size_t args = tokenized.count - 1;
  if (args < spec->min_args || args > spec->max_args) {
    return fail("arity", std::string(spec->name) + " takes " +
                             std::to_string(spec->min_args) +
                             (spec->min_args == spec->max_args
                                  ? ""
                                  : ".." + std::to_string(spec->max_args)) +
                             " argument(s), got " + std::to_string(args));
  }

  ParsedRequest out;
  out.ok = true;
  out.request.verb = spec->verb;
  switch (spec->verb) {
    case Verb::kEncode:
    case Verb::kInstall:
    case Verb::kLinkUp:
    case Verb::kLinkDown:
      out.request.a = std::string(tokens[1]);
      out.request.b = std::string(tokens[2]);
      break;
    case Verb::kWithdraw:
    case Verb::kQuery: {
      const auto key = common::parse_u64(tokens[1]);
      if (!key) {
        return fail("bad-key",
                    "not a route key: " + std::string(tokens[1]));
      }
      out.request.key = *key;
      break;
    }
    case Verb::kSnapshot:
      if (args == 1) out.request.path = std::string(tokens[1]);
      break;
    default:
      break;
  }
  return out;
}

std::string error_response(std::string_view code, std::string_view message) {
  runner::JsonObject o;
  o.field("ok", false).field("code", code).field("error", message);
  return o.str();
}

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::length_error("kard frame payload exceeds " +
                            std::to_string(kMaxFrameBytes) + " bytes");
  }
  std::string out;
  out.reserve(4 + payload.size());
  const auto n = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>(n & 0xff));
  out.append(payload);
  return out;
}

FrameDecoder::Status FrameDecoder::next(std::string& payload,
                                        std::string& error) {
  if (fatal_) {
    error = "framing error: stream already fatal";
    return Status::kFatal;
  }
  if (buffered() < 4) return Status::kNeedMore;
  const auto* p =
      reinterpret_cast<const unsigned char*>(buffer_.data() + consumed_);
  const std::uint32_t n = (static_cast<std::uint32_t>(p[0]) << 24) |
                          (static_cast<std::uint32_t>(p[1]) << 16) |
                          (static_cast<std::uint32_t>(p[2]) << 8) |
                          static_cast<std::uint32_t>(p[3]);
  if (n == 0 || n > kMaxFrameBytes) {
    fatal_ = true;
    error = "framing error: length " + std::to_string(n) +
            " outside [1, " + std::to_string(kMaxFrameBytes) + "]";
    return Status::kFatal;
  }
  if (buffered() < 4 + static_cast<std::size_t>(n)) return Status::kNeedMore;
  payload.assign(buffer_, consumed_ + 4, n);
  consumed_ += 4 + static_cast<std::size_t>(n);
  // Reclaim the consumed prefix once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return Status::kFrame;
}

}  // namespace kar::daemon
