// Minimal JSON document model — build, serialize, parse.
//
// The run-manifest and bench-regression tooling need real (nested) JSON,
// and the JSONL trace reader (obs/jsonl.h) parses each event line with it.
// This is a deliberately small tagged-variant value: enough to write a
// manifest, read it back byte-faithfully, and diff two bench result files
// — not a general-purpose JSON library (no streaming, no comments, UTF-8
// passes through unvalidated).
//
// Numbers are doubles; serialization uses the shortest representation
// that round-trips exactly (FormatJsonNumber, shared with the JSONL
// writer), so Parse(value.ToString()) == value for any tree built here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace sunflow::obs {

/// Shortest decimal representation of `v` that strtod parses back to the
/// same double (%.17g fallback).
std::string FormatJsonNumber(double v);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Sorted keys: serialization is deterministic regardless of insertion
  /// order, which keeps manifests diffable.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}  // NOLINT(google-explicit-constructor)
  JsonValue(bool b) : value_(b) {}                // NOLINT(google-explicit-constructor)
  JsonValue(double d) : value_(d) {}              // NOLINT(google-explicit-constructor)
  JsonValue(int i) : value_(static_cast<double>(i)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(std::uint64_t i) : value_(static_cast<double>(i)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(std::string s) : value_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(std::string_view s) : value_(std::string(s)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(const char* s) : value_(std::string(s)) {}  // NOLINT(google-explicit-constructor)

  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// Object field access. operator[] inserts a null on a missing key (and
  /// converts a null value into an object, so building nests naturally);
  /// Find returns null on a missing key; at() throws naming the key.
  JsonValue& operator[](const std::string& key);
  const JsonValue* Find(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;

  /// Array append (converts a null value into an array first).
  void Append(JsonValue v);

  std::size_t size() const;

  /// Serialization. indent < 0 writes compact one-line JSON; indent >= 0
  /// pretty-prints with that many spaces per level.
  void Write(std::ostream& out, int indent = -1) const;
  std::string ToString(int indent = -1) const;

  /// Parses one JSON document (surrounding whitespace allowed, trailing
  /// garbage rejected). Throws std::runtime_error with a byte offset.
  static JsonValue Parse(std::string_view text);
  /// Parses a whole file; throws std::runtime_error naming the path on
  /// open failure or parse error.
  static JsonValue ParseFile(const std::string& path);

  friend bool operator==(const JsonValue& a, const JsonValue& b) {
    return a.value_ == b.value_;
  }

 private:
  explicit JsonValue(Array a) : value_(std::move(a)) {}
  explicit JsonValue(Object o) : value_(std::move(o)) {}

  void WriteIndented(std::ostream& out, int indent, int depth) const;

  // Alternative order must match Kind's enumerator order.
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace sunflow::obs
