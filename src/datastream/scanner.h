// The §5 lexical rules, written once.  A datastream is payload bytes and
// backslash units; this header says what a backslash starts, how marker
// args read, and how payload is escaped.  The reader (Lex and SkipObject)
// and the salvager scan with it, and the writer and the salvager escape
// with it; each keeps its own policy on top (tokens and diagnostics, the
// skip's depth count, salvage items and repairs).
//
// Header-only and inline, like directive_args.h: the reader's inner loop
// calls ScanBackslash once per backslash and pays no call for it.

#ifndef ATK_SRC_DATASTREAM_SCANNER_H_
#define ATK_SRC_DATASTREAM_SCANNER_H_

#include <array>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "src/datastream/directive_args.h"

namespace atk {

// What starts at a backslash.  `end` is one past the unit's last byte.
struct BackslashUnit {
  enum class Kind {
    kEscape,         // "\\" or "\x{hh}": payload byte `byte`.
    kDirective,      // "\name{args}" closed on its line.
    kUnterminated,   // "\name{" with no '}' before the newline or EOF; `end`
                     // is that newline (or EOF), which is not part of it.
    kLoneBackslash,  // None of the above: the backslash alone.
  };

  Kind kind = Kind::kLoneBackslash;
  size_t end = 0;
  char byte = 0;          // kEscape.
  std::string_view name;  // kDirective, kUnterminated.
  std::string_view args;  // kDirective.
};

inline bool IsDirectiveNameChar(char ch) {
  return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' || ch == '-';
}

inline int HexValue(char ch) {
  if (ch >= '0' && ch <= '9') {
    return ch - '0';
  }
  if (ch >= 'a' && ch <= 'f') {
    return ch - 'a' + 10;
  }
  if (ch >= 'A' && ch <= 'F') {
    return ch - 'A' + 10;
  }
  return -1;
}

// The escape at data[at] == '\\', if there is one.
inline bool ScanEscape(std::string_view data, size_t at, BackslashUnit* unit) {
  if (at + 1 < data.size() && data[at + 1] == '\\') {
    unit->kind = BackslashUnit::Kind::kEscape;
    unit->byte = '\\';
    unit->end = at + 2;
    return true;
  }
  if (at + 5 < data.size() && data[at + 1] == 'x' && data[at + 2] == '{' &&
      data[at + 5] == '}') {
    int hi = HexValue(data[at + 3]);
    int lo = HexValue(data[at + 4]);
    if (hi >= 0 && lo >= 0) {
      unit->kind = BackslashUnit::Kind::kEscape;
      unit->byte = static_cast<char>(hi * 16 + lo);
      unit->end = at + 6;
      return true;
    }
  }
  return false;
}

// The unit at data[at] == '\\'.  A directive's args never span a newline,
// so no unit reaches past the end of its line: a scan that resumes at `end`
// reads each byte a bounded number of times.
inline BackslashUnit ScanBackslash(std::string_view data, size_t at) {
  BackslashUnit unit;
  if (ScanEscape(data, at, &unit)) {
    return unit;
  }
  size_t p = at + 1;
  while (p < data.size() && IsDirectiveNameChar(data[p])) {
    ++p;
  }
  if (p == at + 1 || p >= data.size() || data[p] != '{') {
    unit.end = at + 1;
    return unit;
  }
  unit.name = data.substr(at + 1, p - at - 1);
  size_t args_start = ++p;
  while (p < data.size() && data[p] != '}' && data[p] != '\n') {
    ++p;
  }
  if (p < data.size() && data[p] == '}') {
    unit.kind = BackslashUnit::Kind::kDirective;
    unit.args = data.substr(args_start, p - args_start);
    unit.end = p + 1;
  } else {
    unit.kind = BackslashUnit::Kind::kUnterminated;
    unit.end = p;
  }
  return unit;
}

// Marker and view-reference args, "type,id": a non-empty type before the
// last comma, then an id of decimal digits only that fits int64_t.  `type`
// is a slice of `args`.
inline bool ParseMarkerArgs(std::string_view args, std::string_view* type, int64_t* id) {
  size_t comma = args.rfind(',');
  if (comma == std::string_view::npos || comma == 0) {
    return false;
  }
  uint64_t value = 0;
  if (!ParseU64(args.substr(comma + 1), &value) ||
      value > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return false;
  }
  *type = args.substr(0, comma);
  *id = static_cast<int64_t>(value);
  return true;
}

// Payload bytes that stand for themselves: '\n', '\t' and printable 7-bit
// ASCII other than the backslash.  A table because the escaper tests every
// byte the writer emits, and one load is cheaper there than the comparisons.
inline constexpr auto kCleanPayloadBytes = [] {
  std::array<bool, 256> clean{};
  for (int byte = 0x20; byte < 0x7F; ++byte) {
    clean[byte] = byte != '\\';
  }
  clean['\n'] = clean['\t'] = true;
  return clean;
}();

// Appends `text` escaped as payload: '\' is doubled and every other byte
// that is not clean becomes \x{hh}, so the stream stays 7-bit printable
// (mailable, §5).  ScanEscape undoes it.
inline void AppendEscapedPayload(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t i = 0;
  while (i < text.size()) {
    size_t j = i;
    while (j < text.size() && kCleanPayloadBytes[static_cast<unsigned char>(text[j])]) {
      ++j;
    }
    out.append(text.data() + i, j - i);
    if (j == text.size()) {
      break;
    }
    unsigned char byte = static_cast<unsigned char>(text[j]);
    if (byte == '\\') {
      out += "\\\\";
    } else {
      const char escape[] = {'\\', 'x', '{', kHex[byte >> 4], kHex[byte & 0xF], '}'};
      out.append(escape, sizeof(escape));
    }
    i = j + 1;
  }
}

}  // namespace atk

#endif  // ATK_SRC_DATASTREAM_SCANNER_H_
