#include "obs/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/jsonl.h"  // EscapeJson

namespace sunflow::obs {

std::string FormatJsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

namespace {

[[noreturn]] void KindError(const char* wanted, JsonValue::Kind got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw std::runtime_error(std::string("json: expected ") + wanted +
                           ", found " + kNames[static_cast<int>(got)]);
}

}  // namespace

bool JsonValue::AsBool() const {
  if (!is_bool()) KindError("bool", kind());
  return std::get<bool>(value_);
}

double JsonValue::AsNumber() const {
  if (!is_number()) KindError("number", kind());
  return std::get<double>(value_);
}

const std::string& JsonValue::AsString() const {
  if (!is_string()) KindError("string", kind());
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::AsArray() const {
  if (!is_array()) KindError("array", kind());
  return std::get<Array>(value_);
}

JsonValue::Array& JsonValue::AsArray() {
  if (!is_array()) KindError("array", kind());
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::AsObject() const {
  if (!is_object()) KindError("object", kind());
  return std::get<Object>(value_);
}

JsonValue::Object& JsonValue::AsObject() {
  if (!is_object()) KindError("object", kind());
  return std::get<Object>(value_);
}

JsonValue& JsonValue::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  return AsObject()[key];
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<Object>(value_);
  const auto it = obj.find(std::string(key));
  return it != obj.end() ? &it->second : nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr)
    throw std::runtime_error("json: missing key \"" + std::string(key) + "\"");
  return *v;
}

void JsonValue::Append(JsonValue v) {
  if (is_null()) value_ = Array{};
  AsArray().push_back(std::move(v));
}

void JsonValue::Write(std::ostream& out, int indent) const {
  WriteIndented(out, indent, 0);
}

std::string JsonValue::ToString(int indent) const {
  std::ostringstream out;
  Write(out, indent);
  return out.str();
}

void JsonValue::WriteIndented(std::ostream& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent < 0) return;
    out << '\n';
    for (int i = 0; i < indent * d; ++i) out << ' ';
  };
  switch (kind()) {
    case Kind::kNull:
      out << "null";
      break;
    case Kind::kBool:
      out << (std::get<bool>(value_) ? "true" : "false");
      break;
    case Kind::kNumber:
      out << FormatJsonNumber(std::get<double>(value_));
      break;
    case Kind::kString:
      out << '"' << EscapeJson(std::get<std::string>(value_)) << '"';
      break;
    case Kind::kArray: {
      const Array& a = std::get<Array>(value_);
      if (a.empty()) {
        out << "[]";
        break;
      }
      out << '[';
      bool first = true;
      for (const JsonValue& v : a) {
        if (!first) out << ',';
        first = false;
        newline_pad(depth + 1);
        v.WriteIndented(out, indent, depth + 1);
      }
      newline_pad(depth);
      out << ']';
      break;
    }
    case Kind::kObject: {
      const Object& o = std::get<Object>(value_);
      if (o.empty()) {
        out << "{}";
        break;
      }
      out << '{';
      bool first = true;
      for (const auto& [key, v] : o) {
        if (!first) out << ',';
        first = false;
        newline_pad(depth + 1);
        out << '"' << EscapeJson(key) << "\":";
        if (indent >= 0) out << ' ';
        v.WriteIndented(out, indent, depth + 1);
      }
      newline_pad(depth);
      out << '}';
      break;
    }
  }
}

namespace {

// Recursive-descent parser over a string_view. Keeps a byte offset for
// error messages; a depth cap guards against stack exhaustion on
// adversarial input.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue(0);
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue ParseValue(int depth) {
    if (depth > kMaxDepth) Fail("nesting too deep");
    SkipWhitespace();
    const char c = Peek();
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"':
        return JsonValue(ParseString());
      case 't':
        if (!Consume("true")) Fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!Consume("false")) Fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!Consume("null")) Fail("bad literal");
        return JsonValue(nullptr);
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject(int depth) {
    Expect('{');
    JsonValue obj = JsonValue::MakeObject();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      obj[key] = ParseValue(depth + 1);
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray(int depth) {
    Expect('[');
    JsonValue arr = JsonValue::MakeArray();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.Append(ParseValue(depth + 1));
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = ParseHex4();
          // Surrogate pair → one code point.
          if (code >= 0xD800 && code <= 0xDBFF && Consume("\\u")) {
            const unsigned low = ParseHex4();
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              Fail("invalid low surrogate");
            }
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          Fail("bad escape character");
      }
    }
  }

  unsigned ParseHex4() {
    if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else Fail("bad hex digit in \\u escape");
    }
    return code;
  }

  static void AppendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  JsonValue ParseNumber() {
    const std::size_t begin = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string token(text_.substr(begin, pos_ - begin));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) {
      pos_ = begin;
      Fail("bad number");
    }
    return JsonValue(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

JsonValue JsonValue::ParseFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open json file " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  try {
    return Parse(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace sunflow::obs
