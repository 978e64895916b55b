// JSON string-body escaping shared by every observability renderer: log
// records, trace and flight-recorder dumps, metrics dumps, the monitor's
// /alerts, /history and /jobs bodies and the shell's JSON views. Metric
// names, rule text and error messages are caller-controlled, so every one
// goes through here before it lands between quotes.
#pragma once

#include <string>
#include <string_view>

namespace sqs {

// `"` and `\` are backslash-escaped, newline, carriage return and tab take
// their short forms, and every other control character becomes \u00XX.
std::string JsonEscape(std::string_view s);

}  // namespace sqs
