#include "obs/jsonl.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/trace_sink.h"

namespace sunflow::obs {

std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;  // UTF-8 bytes pass through untouched
        }
    }
  }
  return out;
}

void WriteJsonlEvent(std::ostream& out, const Event& e) {
  out << "{\"type\":\"" << ToString(e.type)
      << "\",\"t\":" << FormatJsonNumber(e.t);
  if (e.dur != 0) out << ",\"dur\":" << FormatJsonNumber(e.dur);
  if (e.coflow >= 0) out << ",\"coflow\":" << e.coflow;
  if (e.in >= 0) out << ",\"in\":" << e.in;
  if (e.out >= 0) out << ",\"out\":" << e.out;
  if (e.value != 0) out << ",\"value\":" << FormatJsonNumber(e.value);
  if (e.count != 0) out << ",\"count\":" << e.count;
  if (e.plane != 0) out << ",\"plane\":" << e.plane;
  out << "}\n";
}

void WriteJsonl(std::ostream& out, std::span<const Event> events) {
  for (const Event& e : events) WriteJsonlEvent(out, e);
}

void JsonlStreamSink::OnEvent(const Event& event) {
  SUNFLOW_DCHECK(guard_.CheckCurrentThread());
  WriteJsonlEvent(out_, event);
}

JsonlStreamSink::~JsonlStreamSink() {
  // Best-effort: destructors must not throw, but the flush still makes
  // the already-written lines durable on early exit / unwind.
  out_.flush();
}

void JsonlStreamSink::Flush() {
  out_.flush();
  if (!out_.good()) {
    throw std::runtime_error("jsonl sink: stream failed during flush");
  }
}

namespace {

// One JSONL line parsed by JsonValue::Parse. Every accessor throws a
// std::runtime_error naming the line and the field.
class Line {
 public:
  Line(const std::string& text, int line_no) : line_no_(line_no) {
    try {
      doc_ = JsonValue::Parse(text);
    } catch (const std::runtime_error& e) {
      Fail(e.what());
    }
    if (!doc_.is_object()) Fail("not a JSON object");
  }

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("jsonl line " + std::to_string(line_no_) +
                             ": " + what);
  }

  const std::string& Type() const {
    const JsonValue* v = doc_.Find("type");
    if (v == nullptr || !v->is_string()) Fail("missing \"type\"");
    return v->AsString();
  }

  // The finite number under `key`; `fallback` when the line has none, or
  // an error when it has no fallback.
  double Number(const char* key, std::optional<double> fallback) const {
    const JsonValue* v = doc_.Find(key);
    if (v == nullptr) {
      if (!fallback) Fail(std::string("missing \"") + key + "\"");
      return *fallback;
    }
    if (!v->is_number() || !std::isfinite(v->AsNumber()))
      Fail(std::string("\"") + key + "\" must be a finite number, got " +
           v->ToString());
    return v->AsNumber();
  }

  // The integer in [lo, end) under `key`; `fallback` when the line has
  // none. `range` spells the bounds for the error.
  std::int64_t Integer(const char* key, std::int64_t fallback, double lo,
                       double end, const char* range) const {
    const JsonValue* v = doc_.Find(key);
    if (v == nullptr) return fallback;
    const double d = v->is_number() ? v->AsNumber() : std::nan("");
    if (!(d >= lo && d < end && d == std::floor(d)))
      Fail(std::string("\"") + key + "\" must be an integer in " + range +
           ", got " + v->ToString());
    return static_cast<std::int64_t>(d);
  }

 private:
  JsonValue doc_;
  int line_no_;
};

}  // namespace

std::vector<Event> ReadJsonl(std::istream& in) {
  // Ids are in [0, INT32_MAX] (the writer omits negative ones); counts in
  // int64 range. Both ends are powers of two, exact as doubles.
  constexpr double kIdEnd = 0x1p31;
  constexpr const char* kIdRange = "[0, 2147483647]";
  std::vector<Event> events;
  std::string text;
  int line_no = 0;
  while (std::getline(in, text)) {
    ++line_no;
    if (text.find_first_not_of(" \t\r") == std::string::npos) continue;
    const Line line(text, line_no);
    Event e;
    const std::string& type = line.Type();
    if (!EventTypeFromString(type, e.type))
      line.Fail("unknown event type '" + type + "'");
    e.t = line.Number("t", std::nullopt);
    e.dur = line.Number("dur", 0.0);
    e.value = line.Number("value", 0.0);
    e.coflow = line.Integer("coflow", -1, 0, kIdEnd, kIdRange);
    e.in = static_cast<PortId>(line.Integer("in", -1, 0, kIdEnd, kIdRange));
    e.out = static_cast<PortId>(line.Integer("out", -1, 0, kIdEnd, kIdRange));
    e.plane =
        static_cast<PlaneId>(line.Integer("plane", 0, 0, kIdEnd, kIdRange));
    e.count = line.Integer("count", 0, -0x1p63, 0x1p63, "int64 range");
    events.push_back(e);
  }
  return events;
}

std::vector<Event> ReadJsonlFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file " + path);
  return ReadJsonl(f);
}

}  // namespace sunflow::obs
