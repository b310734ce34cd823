// Frozen pre-zero-copy lexer — see baseline_reader.h.  The lexing logic is
// the verbatim PR-4 DataStreamReader with the observability counters removed
// (the baseline must not double-count datastream.reader.* metrics when both
// lexers run over the same bytes in the differential sweep).

#include "tests/baseline_reader.h"

#include <cctype>

namespace atk {
namespace {

bool IsDirectiveNameChar(char ch) {
  return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' || ch == '-';
}

bool ParseMarkerArgs(std::string_view args, std::string* type, int64_t* id) {
  size_t comma = args.rfind(',');
  if (comma == std::string_view::npos || comma == 0 || comma + 1 >= args.size()) {
    return false;
  }
  *type = std::string(args.substr(0, comma));
  int64_t value = 0;
  for (size_t i = comma + 1; i < args.size(); ++i) {
    char ch = args[i];
    if (!std::isdigit(static_cast<unsigned char>(ch))) {
      return false;
    }
    value = value * 10 + (ch - '0');
  }
  *id = value;
  return true;
}

int HexValue(char ch) {
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

}  // namespace

BaselineDataStreamReader::BaselineDataStreamReader(std::string input)
    : input_(std::move(input)) {}

const BaselineDataStreamReader::Token& BaselineDataStreamReader::Peek() {
  if (!has_peek_) {
    peek_ = Lex();
    has_peek_ = true;
  }
  return peek_;
}

BaselineDataStreamReader::Token BaselineDataStreamReader::Next() {
  if (has_peek_) {
    has_peek_ = false;
    return std::move(peek_);
  }
  return Lex();
}

void BaselineDataStreamReader::AddDiagnostic(StatusCode code, size_t offset,
                                             std::string message) {
  if (code == StatusCode::kCorrupt) {
    saw_malformed_ = true;
  }
  diagnostics_.push_back(Diagnostic{code, offset, std::move(message)});
}

void BaselineDataStreamReader::MarkTruncated(size_t offset, std::string message) {
  if (!truncated_) {
    truncated_ = true;
    diagnostics_.push_back(Diagnostic{StatusCode::kTruncated, offset, std::move(message)});
  }
}

bool BaselineDataStreamReader::LexDirective(Token* token) {
  size_t start = pos_;
  size_t p = pos_ + 1;
  size_t name_start = p;
  while (p < input_.size() && IsDirectiveNameChar(input_[p])) {
    ++p;
  }
  if (p == name_start || p >= input_.size() || input_[p] != '{') {
    return false;
  }
  std::string name = input_.substr(name_start, p - name_start);
  ++p;  // consume '{'
  size_t args_start = p;
  while (p < input_.size() && input_[p] != '}' && input_[p] != '\n') {
    ++p;
  }
  if (p >= input_.size() || input_[p] != '}') {
    token->kind = Token::Kind::kDiagnostic;
    token->type = std::move(name);
    token->text = input_.substr(start, p - start);
    token->offset = start;
    pos_ = p;
    AddDiagnostic(StatusCode::kCorrupt, start,
                  "unterminated directive \\" + token->type + "{...");
    return true;
  }
  std::string args = input_.substr(args_start, p - args_start);
  pos_ = p + 1;  // past '}'

  if (name == "begindata" || name == "enddata") {
    std::string type;
    int64_t id = 0;
    if (!ParseMarkerArgs(args, &type, &id)) {
      token->kind = Token::Kind::kDiagnostic;
      token->type = name;
      token->text = input_.substr(start, pos_ - start);
      token->offset = start;
      AddDiagnostic(StatusCode::kCorrupt, start,
                    "malformed \\" + name + " marker args: {" + args + "}");
      return true;
    }
    if (pos_ < input_.size() && input_[pos_] == '\n') {
      ++pos_;
    }
    if (name == "begindata") {
      open_.push_back(OpenMarker{type, id});
      token->kind = Token::Kind::kBeginData;
    } else {
      if (!open_.empty() && open_.back().type == type && open_.back().id == id) {
        open_.pop_back();
      } else {
        AddDiagnostic(StatusCode::kCorrupt, start,
                      "mismatched \\enddata{" + type + "," + std::to_string(id) + "}");
        if (!open_.empty()) {
          open_.pop_back();
        }
      }
      token->kind = Token::Kind::kEndData;
    }
    token->type = std::move(type);
    token->id = id;
    token->offset = start;
    return true;
  }
  if (name == "view") {
    std::string type;
    int64_t id = 0;
    if (ParseMarkerArgs(args, &type, &id)) {
      token->kind = Token::Kind::kViewRef;
      token->type = std::move(type);
      token->id = id;
      token->offset = start;
      return true;
    }
    token->kind = Token::Kind::kDiagnostic;
    token->type = std::move(name);
    token->text = input_.substr(start, pos_ - start);
    token->offset = start;
    AddDiagnostic(StatusCode::kCorrupt, start, "malformed \\view args: {" + args + "}");
    return true;
  }
  token->kind = Token::Kind::kDirective;
  token->type = std::move(name);
  token->text = std::move(args);
  token->offset = start;
  return true;
}

BaselineDataStreamReader::Token BaselineDataStreamReader::Lex() {
  if (has_stashed_) {
    has_stashed_ = false;
    return std::move(stashed_);
  }
  Token token;
  std::string text;
  size_t text_start = pos_;
  while (pos_ < input_.size()) {
    char ch = input_[pos_];
    if (ch != '\\') {
      text += ch;
      ++pos_;
      continue;
    }
    if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\\') {
      text += '\\';
      pos_ += 2;
      continue;
    }
    if (pos_ + 4 < input_.size() && input_[pos_ + 1] == 'x' && input_[pos_ + 2] == '{') {
      int hi = HexValue(input_[pos_ + 3]);
      int lo = pos_ + 4 < input_.size() ? HexValue(input_[pos_ + 4]) : -1;
      if (hi >= 0 && lo >= 0 && pos_ + 5 < input_.size() && input_[pos_ + 5] == '}') {
        text += static_cast<char>(hi * 16 + lo);
        pos_ += 6;
        continue;
      }
    }
    Token directive;
    if (LexDirective(&directive)) {
      if (text.empty()) {
        return directive;
      }
      stashed_ = std::move(directive);
      has_stashed_ = true;
      token.kind = Token::Kind::kText;
      token.text = std::move(text);
      token.offset = text_start;
      return token;
    }
    AddDiagnostic(StatusCode::kCorrupt, pos_, "lone backslash recovered as literal text");
    text += '\\';
    ++pos_;
  }
  if (!text.empty()) {
    token.kind = Token::Kind::kText;
    token.text = std::move(text);
    token.offset = text_start;
    return token;
  }
  if (!open_.empty()) {
    MarkTruncated(pos_, "input ended with " + std::to_string(open_.size()) +
                            " marker(s) still open (innermost: \\begindata{" +
                            open_.back().type + "," + std::to_string(open_.back().id) + "})");
  }
  token.kind = Token::Kind::kEof;
  token.offset = pos_;
  return token;
}

bool BaselineDataStreamReader::SkipObject(std::string_view type, int64_t id,
                                          std::string* raw_body) {
  if (has_peek_) {
    has_peek_ = false;
  }
  has_stashed_ = false;
  size_t body_start = pos_;
  int depth_needed = 1;
  size_t p = pos_;
  while (p < input_.size()) {
    char ch = input_[p];
    if (ch != '\\') {
      ++p;
      continue;
    }
    if (p + 1 < input_.size() && input_[p + 1] == '\\') {
      p += 2;
      continue;
    }
    size_t q = p + 1;
    size_t name_start = q;
    while (q < input_.size() && IsDirectiveNameChar(input_[q])) {
      ++q;
    }
    if (q == name_start || q >= input_.size() || input_[q] != '{') {
      ++p;
      continue;
    }
    std::string_view name(input_.data() + name_start, q - name_start);
    size_t args_start = q + 1;
    size_t close = input_.find('}', args_start);
    if (close == std::string::npos || input_.find('\n', args_start) < close) {
      ++p;
      continue;
    }
    if (name == "begindata") {
      ++depth_needed;
    } else if (name == "enddata") {
      --depth_needed;
      if (depth_needed == 0) {
        std::string_view args(input_.data() + args_start, close - args_start);
        std::string end_type;
        int64_t end_id = 0;
        if (!ParseMarkerArgs(args, &end_type, &end_id) || end_type != type || end_id != id) {
          AddDiagnostic(StatusCode::kCorrupt, p,
                        "skip of \\begindata{" + std::string(type) + "," + std::to_string(id) +
                            "} closed by non-matching \\enddata{" + std::string(args) + "}");
        }
        if (raw_body != nullptr) {
          *raw_body = input_.substr(body_start, p - body_start);
        }
        pos_ = close + 1;
        if (pos_ < input_.size() && input_[pos_] == '\n') {
          ++pos_;
        }
        if (!open_.empty()) {
          open_.pop_back();
        }
        return true;
      }
    }
    p = close + 1;
  }
  MarkTruncated(input_.size(), "input ended while skipping \\begindata{" +
                                   std::string(type) + "," + std::to_string(id) + "}");
  if (raw_body != nullptr) {
    *raw_body = input_.substr(body_start);
  }
  pos_ = input_.size();
  open_.clear();
  return false;
}

}  // namespace atk
