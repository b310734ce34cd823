// Minimal strict JSON parser shared by test binaries.
//
// Just enough to validate JSON emitted by the toolkit (TraceExport's
// Perfetto stream, the bench metric lines) and to read the perf gate file
// (bench/perf_gates.h) without an external dependency:
// objects, arrays, strings with the standard escapes, numbers, booleans,
// null.  Strictness matters — a trailing comma or stray byte must fail the
// test, not slide through into a downstream consumer.
//
// Header-only on purpose: test binaries are separate executables and this
// stays out of the shipped libraries.

#ifndef ATK_TESTS_TEST_JSON_H_
#define ATK_TESTS_TEST_JSON_H_

#include <cctype>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace atk {
namespace testjson {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;              // kArray
  std::map<std::string, JsonValue> members;  // kObject

  const JsonValue* Get(const std::string& key) const {
    auto it = members.find(key);
    return it == members.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (text_.substr(pos_, 4) == "true") {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.substr(pos_, 4) == "null") {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    out->kind = JsonValue::Kind::kNumber;
    return ParseNumber(&out->number);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) {
      return false;
    }
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      if (!Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->members[key] = std::move(value);
      if (Consume(',')) {
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) {
      return false;
    }
    if (Consume(']')) {
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->items.push_back(std::move(value));
      if (Consume(',')) {
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Raw control characters must have been escaped.
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          *out += esc;
          break;
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't':
          *out += '?';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + static_cast<size_t>(i)];
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              return false;
            }
          }
          pos_ += 4;
          *out += '?';
          break;
        }
        default:
          return false;
      }
    }
    return false;  // Unterminated.
  }

  bool ParseNumber(double* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    size_t digits = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits) {
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      size_t frac = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac) {
        return false;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      size_t exp = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp) {
        return false;
      }
    }
    *out = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

inline bool ParseJson(std::string_view text, JsonValue* out) {
  return JsonParser(text).Parse(out);
}

}  // namespace testjson
}  // namespace atk

#endif  // ATK_TESTS_TEST_JSON_H_
