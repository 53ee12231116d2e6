#include "obs/jsonl.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace a3cs::obs {
namespace {

[[noreturn]] void fail(const std::string& what, std::size_t pos) {
  throw std::runtime_error("JSON parse error at byte " + std::to_string(pos) +
                           ": " + what);
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return JsonValue();
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object() {
    // Members land in a std::map, so re-serialized or iterated objects are
    // always key-sorted — byte-stable regardless of source order (the same
    // determinism contract a3cs-lint's det-unordered-iter rule enforces on
    // the writer side).
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.object_[key.string_] = parse_value();
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == '}') return v;
      if (sep != ',') fail("expected ',' or '}'", pos_ - 1);
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == ']') return v;
      if (sep != ',') fail("expected ',' or ']'", pos_ - 1);
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string_ += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string_ += '"'; break;
        case '\\': v.string_ += '\\'; break;
        case '/': v.string_ += '/'; break;
        case 'n': v.string_ += '\n'; break;
        case 'r': v.string_ += '\r'; break;
        case 't': v.string_ += '\t'; break;
        case 'b': v.string_ += '\b'; break;
        case 'f': v.string_ += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape", pos_);
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          // TraceWriter only emits \u00XX control escapes; decode those and
          // pass anything else through as '?' rather than implementing UTF-16.
          v.string_ += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("bad escape", pos_ - 1);
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value", pos_);
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double num = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') fail("bad number: " + tok, start);
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = num;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("JSON: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("JSON: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("JSON: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw std::runtime_error("JSON: not an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) throw std::runtime_error("JSON: not an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

std::vector<JsonValue> parse_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("parse_jsonl_file: cannot open " + path);
  std::vector<JsonValue> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      out.push_back(JsonValue::parse(line));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
  }
  return out;
}

}  // namespace a3cs::obs
