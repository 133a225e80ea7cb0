#include "obs/jsonl.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
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

// Minimal field scanner for the exact shape WriteJsonlEvent produces (and
// any whitespace-insensitive reordering of it). Finds `"key":` and parses
// the value that follows; good enough for our own format without pulling
// in a JSON dependency.
bool FindValue(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\"";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == ':')) ++pos;
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    const std::size_t end = line.find('"', pos + 1);
    if (end == std::string::npos) return false;
    out = line.substr(pos + 1, end - pos - 1);
  } else {
    std::size_t end = pos;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    out = line.substr(pos, end - pos);
  }
  return true;
}

double ParseNum(const std::string& s, int line_no, const char* key) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) {
    throw std::runtime_error("jsonl line " + std::to_string(line_no) +
                             ": bad number for \"" + key + "\"");
  }
  return v;
}

}  // namespace

std::vector<Event> ReadJsonl(std::istream& in) {
  std::vector<Event> events;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string field;
    if (!FindValue(line, "type", field)) {
      throw std::runtime_error("jsonl line " + std::to_string(line_no) +
                               ": missing \"type\"");
    }
    Event e;
    if (!EventTypeFromString(field, e.type)) {
      throw std::runtime_error("jsonl line " + std::to_string(line_no) +
                               ": unknown event type '" + field + "'");
    }
    if (!FindValue(line, "t", field)) {
      throw std::runtime_error("jsonl line " + std::to_string(line_no) +
                               ": missing \"t\"");
    }
    e.t = ParseNum(field, line_no, "t");
    if (FindValue(line, "dur", field)) e.dur = ParseNum(field, line_no, "dur");
    if (FindValue(line, "coflow", field))
      e.coflow = static_cast<CoflowId>(ParseNum(field, line_no, "coflow"));
    if (FindValue(line, "in", field))
      e.in = static_cast<PortId>(ParseNum(field, line_no, "in"));
    if (FindValue(line, "out", field))
      e.out = static_cast<PortId>(ParseNum(field, line_no, "out"));
    if (FindValue(line, "value", field))
      e.value = ParseNum(field, line_no, "value");
    if (FindValue(line, "count", field))
      e.count = static_cast<std::int64_t>(ParseNum(field, line_no, "count"));
    if (FindValue(line, "plane", field))
      e.plane = static_cast<PlaneId>(ParseNum(field, line_no, "plane"));
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
