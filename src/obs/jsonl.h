// Minimal JSON parser for reading back JSONL traces (trace_report, tests).
// Supports the subset TraceWriter emits — objects, arrays, strings, numbers,
// booleans, null — with strict syntax checking; parse errors throw
// std::runtime_error with position information.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace a3cs::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  // Object member access; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  // Convenience getters with fallbacks (also used by trace_report).
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

  // Parses one complete JSON document; trailing non-whitespace is an error.
  static JsonValue parse(const std::string& text);

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses a whole JSONL file: one JSON object per non-empty line.
std::vector<JsonValue> parse_jsonl_file(const std::string& path);

}  // namespace a3cs::obs
