// Compact JSONL trace format — one event per line, round-trippable.
//
// This is the storage format for large runs (the Chrome JSON of
// obs/chrome_trace.h is a view, not a store): append-only, greppable, and
// readable back by tools/trace_inspect. Numbers are written with enough
// digits to round-trip doubles exactly.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"

namespace sunflow::obs {

/// JSON string-escapes `s` (quotes, backslash, control characters).
std::string EscapeJson(std::string_view s);

/// Writes all events, one line each (with trailing newline).
void WriteJsonl(std::ostream& out, std::span<const Event> events);

/// Parses a JSONL stream written by WriteJsonl, one JsonValue::Parse per
/// line. Blank lines are skipped. A malformed line throws
/// std::runtime_error naming the line number and the field: a non-finite
/// `t`, `dur` or `value`; a `coflow`, `in`, `out` or `plane` that is not an
/// integer in [0, INT32_MAX]; a `count` that is not an integer in int64
/// range.
std::vector<Event> ReadJsonl(std::istream& in);

/// Convenience: parse a whole file. Throws std::runtime_error if the file
/// cannot be opened.
std::vector<Event> ReadJsonlFile(const std::string& path);

}  // namespace sunflow::obs
