// JSON text helpers shared by every layer that writes JSON: the runner's
// JSONL records, the trace exporters and the `kard` answers. Number
// formatting is deterministic: value-equal doubles always serialize to
// byte-equal text.
#pragma once

#include <string>
#include <string_view>

namespace kar::common {

/// Appends `text` to `out`, escaped for inclusion inside a JSON string
/// literal (quotes, backslashes, and control characters; UTF-8 passes
/// through untouched). Runs that need no escape are copied whole.
void append_json_escaped(std::string& out, std::string_view text);

/// `text` escaped as by append_json_escaped().
[[nodiscard]] std::string json_escape(std::string_view text);

/// Shortest representation of `value` that parses back to the same double
/// ("NaN"/"Infinity" are not valid JSON: non-finite values render as null).
[[nodiscard]] std::string json_double(double value);

}  // namespace kar::common
