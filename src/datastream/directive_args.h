// Directive arguments (§5) — the one parser component read paths use to
// take apart the comma-separated arguments of a directive such as
// \cell{2,1,text}, \shape{line,1,-4,7,30,12} or \rasterdim{16,12}.  It
// works in place on the token's string_view: no copy, no locale, no stream.
//
// Fields are read left to right, and every field after the first must
// follow a comma directly.  An integer field is optional blanks, an optional
// sign and one or more digits; it ends at the first byte that is not a
// digit.  These are the fields sscanf's "%d,%d" accepts, and as with sscanf
// whatever follows the last field read is ignored.  Unlike sscanf, a value
// outside the target type's range is rejected rather than wrapped.  A word
// is optional blanks then the longest run of non-blank bytes (sscanf's
// "%s"); a name is every byte up to the next comma (getline's ',' field).
// Once a read fails, every later read fails too, and a failed read leaves
// its output untouched.
//
// Record documents (\begindata{trace}, {memsnapshot}, {editrace}) and the
// server's frame payloads use a stricter grammar, read by the free functions
// below: a field is everything between two commas (SplitArgs), and a number
// field is all decimal digits, an int64_t optionally led by one '-'.  No
// blanks, no '+', nothing after the digits, and no value out of range.

#ifndef ATK_SRC_DATASTREAM_DIRECTIVE_ARGS_H_
#define ATK_SRC_DATASTREAM_DIRECTIVE_ARGS_H_

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace atk {

class DirectiveArgs {
 public:
  explicit DirectiveArgs(std::string_view text) : rest_(text) {}

  bool Int(int& out) { return ReadInt(out); }
  bool Int(int64_t& out) { return ReadInt(out); }

  // Optional blanks, then a non-empty run of non-blank bytes (commas
  // included): the trailing word of \cell{row,col,kind}.
  bool Word(std::string_view& out) {
    if (!StartField()) {
      return false;
    }
    size_t begin = SkipBlanks(0);
    size_t end = begin;
    while (end < rest_.size() && !IsBlank(rest_[end])) {
      ++end;
    }
    if (end == begin) {
      return Fail();
    }
    out = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return true;
  }

  // Every byte up to the next comma or the end, possibly none: the leading
  // kind or style name of \shape{line,...} and \textstyle{bold,...}.
  bool Name(std::string_view& out) {
    if (!StartField()) {
      return false;
    }
    out = rest_.substr(0, rest_.find(','));
    rest_.remove_prefix(out.size());
    return true;
  }

 private:
  static bool IsBlank(char ch) {
    return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\v' || ch == '\f' || ch == '\r';
  }

  size_t SkipBlanks(size_t i) const {
    while (i < rest_.size() && IsBlank(rest_[i])) {
      ++i;
    }
    return i;
  }

  bool Fail() {
    failed_ = true;
    return false;
  }

  // Consumes the comma that separates this field from the previous one.
  bool StartField() {
    if (failed_) {
      return false;
    }
    if (!first_) {
      if (rest_.empty() || rest_[0] != ',') {
        return Fail();
      }
      rest_.remove_prefix(1);
    }
    first_ = false;
    return true;
  }

  template <typename T>
  bool ReadInt(T& out) {
    if (!StartField()) {
      return false;
    }
    size_t i = SkipBlanks(0);
    bool negative = false;
    if (i < rest_.size() && (rest_[i] == '+' || rest_[i] == '-')) {
      negative = rest_[i] == '-';
      ++i;
    }
    // The magnitude limit: max, or max + 1 = -min for a negative value.
    const uint64_t limit =
        static_cast<uint64_t>(std::numeric_limits<T>::max()) + (negative ? 1 : 0);
    const size_t digits = i;
    uint64_t magnitude = 0;
    for (; i < rest_.size() && rest_[i] >= '0' && rest_[i] <= '9'; ++i) {
      uint64_t digit = static_cast<uint64_t>(rest_[i] - '0');
      if (magnitude > (limit - digit) / 10) {
        return Fail();
      }
      magnitude = magnitude * 10 + digit;
    }
    if (i == digits) {
      return Fail();
    }
    // Two's-complement wrap (defined since C++20) turns -min's magnitude
    // into min itself.
    out = static_cast<T>(negative ? 0 - magnitude : magnitude);
    rest_.remove_prefix(i);
    return true;
  }

  std::string_view rest_;
  bool first_ = true;
  bool failed_ = false;
};

// Strict decimal fields; false (and `out` untouched) unless the whole field
// is one in-range number.  from_chars has exactly this grammar: no blanks,
// no '+', a '-' only for a signed type, and overflow is an error.
template <typename T>
bool ParseDecimalField(std::string_view field, T* out) {
  T value = 0;
  auto [end, error] = std::from_chars(field.data(), field.data() + field.size(), value);
  if (error != std::errc() || end != field.data() + field.size()) {
    return false;
  }
  *out = value;
  return true;
}
inline bool ParseU64(std::string_view field, uint64_t* out) {
  return ParseDecimalField(field, out);
}
inline bool ParseI64(std::string_view field, int64_t* out) {
  return ParseDecimalField(field, out);
}

// The fields between commas; "" is one empty field.  Only the last field of
// a record directive may be a name, and names never contain a comma.
inline std::vector<std::string_view> SplitArgs(std::string_view args) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    size_t comma = args.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(args.substr(start));
      return fields;
    }
    fields.push_back(args.substr(start, comma - start));
    start = comma + 1;
  }
}

// The inverse of SplitArgs, for writers.
inline std::string Join(std::initializer_list<std::string> fields) {
  std::string out;
  bool first = true;
  for (const std::string& field : fields) {
    if (!first) {
      out += ',';
    }
    out += field;
    first = false;
  }
  return out;
}

}  // namespace atk

#endif  // ATK_SRC_DATASTREAM_DIRECTIVE_ARGS_H_
