#include "src/datastream/reader.h"

#include <cstring>

#include "src/datastream/scanner.h"
#include "src/observability/observability.h"

namespace atk {
namespace {

// Next backslash at or after `from`, or npos.  The zero-copy lexer's inner
// loop: every byte between backslashes is covered by one memchr call.
size_t FindBackslash(std::string_view data, size_t from) {
  if (from >= data.size()) {
    return std::string_view::npos;
  }
  const void* hit = std::memchr(data.data() + from, '\\', data.size() - from);
  return hit == nullptr ? std::string_view::npos
                        : static_cast<size_t>(static_cast<const char*>(hit) - data.data());
}

// §5 parse-cost accounting; bytes are attributed when the reader opens.
void CountReaderOpen(size_t bytes) {
  using observability::Counter;
  using observability::MetricsRegistry;
  static Counter& opened = MetricsRegistry::Instance().counter("datastream.reader.opened");
  static Counter& consumed = MetricsRegistry::Instance().counter("datastream.reader.ingested_bytes");
  opened.Add(1);
  consumed.Add(bytes);
}

}  // namespace

observability::MemoryAccount& DataStreamPinnedAccount() {
  static observability::MemoryAccount& account =
      observability::MemoryAccountant::Instance().account("datastream.mem.pinned");
  return account;
}

observability::MemoryAccount& DataStreamScratchAccount() {
  static observability::MemoryAccount& account =
      observability::MemoryAccountant::Instance().account("datastream.mem.scratch");
  return account;
}

DataStreamReader::DataStreamReader(std::string input) : owned_(std::move(input)) {
  data_ = owned_;
  CountReaderOpen(data_.size());
  pinned_mem_ = observability::ScopedCharge(DataStreamPinnedAccount(),
                                            static_cast<int64_t>(owned_.capacity()));
}

DataStreamReader::DataStreamReader(std::istream& in) {
  // Chunked reads appended straight into the pinned buffer — no
  // ostringstream double-buffering.
  char chunk[64 * 1024];
  std::streamsize got = 0;
  do {
    in.read(chunk, sizeof(chunk));
    got = in.gcount();
    if (got > 0) {
      owned_.append(chunk, static_cast<size_t>(got));
    }
  } while (got == static_cast<std::streamsize>(sizeof(chunk)));
  data_ = owned_;
  CountReaderOpen(data_.size());
  pinned_mem_ = observability::ScopedCharge(DataStreamPinnedAccount(),
                                            static_cast<int64_t>(owned_.capacity()));
}

DataStreamReader::DataStreamReader(std::string_view pinned) : data_(pinned) {
  CountReaderOpen(data_.size());
}

const DataStreamReader::Token& DataStreamReader::Peek() {
  if (!has_peek_) {
    // Snapshot the lexer state so SkipObject can rewind over the peeked
    // token instead of silently dropping it.
    peek_rewind_.pos = pos_;
    peek_rewind_.open_size = open_.size();
    peek_rewind_.repush = !open_.empty();
    if (peek_rewind_.repush) {
      peek_rewind_.reopened = open_.back();
    }
    peek_rewind_.diagnostics_size = diagnostics_.size();
    peek_rewind_.truncated = truncated_;
    peek_rewind_.saw_malformed = saw_malformed_;
    peek_rewind_.has_stashed = has_stashed_;
    peek_rewind_.stashed = stashed_;
    peek_ = Lex();
    has_peek_ = true;
  }
  return peek_;
}

void DataStreamReader::RewindPeek() {
  pos_ = peek_rewind_.pos;
  if (open_.size() > peek_rewind_.open_size) {
    open_.pop_back();  // The peeked token was a \begindata.
  } else if (open_.size() < peek_rewind_.open_size && peek_rewind_.repush) {
    open_.push_back(peek_rewind_.reopened);  // The peeked token was an \enddata.
  }
  diagnostics_.resize(peek_rewind_.diagnostics_size);
  truncated_ = peek_rewind_.truncated;
  saw_malformed_ = peek_rewind_.saw_malformed;
  has_stashed_ = peek_rewind_.has_stashed;
  stashed_ = peek_rewind_.stashed;
  has_peek_ = false;
}

DataStreamReader::Token DataStreamReader::Next() {
  static observability::Counter& tokens =
      observability::MetricsRegistry::Instance().counter("datastream.reader.tokens");
  tokens.Add(1);
  if (has_peek_) {
    has_peek_ = false;
    return peek_;
  }
  return Lex();
}

void DataStreamReader::AddDiagnostic(StatusCode code, size_t offset, std::string message) {
  if (code == StatusCode::kCorrupt) {
    saw_malformed_ = true;
  }
  static observability::Counter& diagnosed =
      observability::MetricsRegistry::Instance().counter("datastream.reader.diagnosed");
  diagnosed.Add(1);
  diagnostics_.push_back(Diagnostic{code, offset, std::move(message)});
}

void DataStreamReader::MarkTruncated(size_t offset, std::string message) {
  if (!truncated_) {
    truncated_ = true;
    diagnostics_.push_back(Diagnostic{StatusCode::kTruncated, offset, std::move(message)});
  }
}

std::string_view DataStreamReader::Intern(std::string&& pending) {
  scratch_bytes_ += pending.size();
  arena_.push_back(std::move(pending));
  // Lazy attach keeps escape-free reads at zero charges.
  if (!scratch_mem_.attached()) {
    scratch_mem_ = observability::ScopedCharge(DataStreamScratchAccount());
  }
  scratch_mem_.Resize(static_cast<int64_t>(scratch_bytes_));
  return arena_.back();
}

DataStreamReader::Token DataStreamReader::LexDirective(const BackslashUnit& unit, size_t start) {
  Token token;
  token.offset = start;
  token.type = unit.name;
  pos_ = unit.end;
  if (unit.kind == BackslashUnit::Kind::kUnterminated) {
    // `\name{` with no closing brace on the line: damaged, not text.  The
    // token carries the raw bytes (up to the newline / EOF) verbatim so a
    // salvage pass can quarantine them without loss.  A trailing newline
    // stays in the stream as ordinary text.
    token.kind = Token::Kind::kDiagnostic;
    token.text = data_.substr(start, pos_ - start);
    AddDiagnostic(StatusCode::kCorrupt, start,
                  "unterminated directive \\" + std::string(unit.name) + "{...");
    return token;
  }
  std::string_view name = unit.name;
  std::string_view args = unit.args;
  if (name == "begindata" || name == "enddata") {
    std::string_view type;
    int64_t id = 0;
    if (!ParseMarkerArgs(args, &type, &id)) {
      // Marker with a missing, non-numeric or out-of-range id: surfaced as a
      // diagnostic token (the raw bytes preserved), never mistaken for
      // content.
      token.kind = Token::Kind::kDiagnostic;
      token.text = data_.substr(start, pos_ - start);
      AddDiagnostic(StatusCode::kCorrupt, start,
                    "malformed \\" + std::string(name) + " marker args: {" +
                        std::string(args) + "}");
      return token;
    }
    // One trailing newline is part of the marker's formatting.
    if (pos_ < data_.size() && data_[pos_] == '\n') {
      ++pos_;
    }
    if (name == "begindata") {
      open_.push_back(OpenMarker{std::string(type), id});
      static observability::Gauge& depth_max =
          observability::MetricsRegistry::Instance().gauge("datastream.reader.depth_max");
      depth_max.SetMax(static_cast<int64_t>(open_.size()));
      token.kind = Token::Kind::kBeginData;
    } else {
      if (!open_.empty() && open_.back().type == type && open_.back().id == id) {
        open_.pop_back();
      } else {
        AddDiagnostic(StatusCode::kCorrupt, start,
                      "mismatched \\enddata{" + std::string(type) + "," +
                          std::to_string(id) + "}");
        if (!open_.empty()) {
          open_.pop_back();
        }
      }
      token.kind = Token::Kind::kEndData;
    }
    token.type = type;
    token.id = id;
    return token;
  }
  if (name == "view") {
    std::string_view type;
    int64_t id = 0;
    if (ParseMarkerArgs(args, &type, &id)) {
      token.kind = Token::Kind::kViewRef;
      token.type = type;
      token.id = id;
      return token;
    }
    token.kind = Token::Kind::kDiagnostic;
    token.text = data_.substr(start, pos_ - start);
    AddDiagnostic(StatusCode::kCorrupt, start,
                  "malformed \\view args: {" + std::string(args) + "}");
    return token;
  }
  token.kind = Token::Kind::kDirective;
  token.text = args;
  return token;
}

DataStreamReader::Token DataStreamReader::Lex() {
  if (has_stashed_) {
    has_stashed_ = false;
    return stashed_;
  }
  Token token;
  size_t text_start = pos_;
  // The current escape-free segment is [seg_start, scan point).  Until an
  // escape forces materialization the token stays a view; `pending` only
  // exists once \\ or \x{hh} is seen.
  size_t seg_start = pos_;
  std::string pending;
  bool materialized = false;
  auto flush_segment = [&](size_t upto) {
    if (upto > seg_start) {
      pending.append(data_.data() + seg_start, upto - seg_start);
    }
  };

  while (pos_ < data_.size()) {
    size_t b = FindBackslash(data_, pos_);
    if (b == std::string_view::npos) {
      pos_ = data_.size();
      break;
    }
    BackslashUnit unit = ScanBackslash(data_, b);
    if (unit.kind == BackslashUnit::Kind::kEscape) {
      // An escape continues the text run.
      flush_segment(b);
      pending += unit.byte;
      materialized = true;
      pos_ = unit.end;
      seg_start = pos_;
      continue;
    }
    if (unit.kind == BackslashUnit::Kind::kLoneBackslash) {
      // Recovered as literal text (the paper's partial-destruction recovery
      // posture).  The byte is its own unescaped form, so the segment
      // continues through it — no materialization needed.
      AddDiagnostic(StatusCode::kCorrupt, b, "lone backslash recovered as literal text");
      pos_ = unit.end;
      continue;
    }
    // A directive, whole or damaged.  Accumulated text is returned first and
    // the directive token is held as the pending stash.
    Token directive = LexDirective(unit, b);
    if (!materialized && b == text_start) {
      return directive;
    }
    token.kind = Token::Kind::kText;
    token.offset = text_start;
    if (materialized) {
      flush_segment(b);
      token.text = Intern(std::move(pending));
    } else {
      token.text = data_.substr(text_start, b - text_start);
    }
    stashed_ = directive;
    has_stashed_ = true;
    return token;
  }
  if (materialized) {
    flush_segment(pos_);
    token.kind = Token::Kind::kText;
    token.text = Intern(std::move(pending));
    token.offset = text_start;
    return token;
  }
  if (pos_ > text_start) {
    token.kind = Token::Kind::kText;
    token.text = data_.substr(text_start, pos_ - text_start);
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

bool DataStreamReader::SkipObject(std::string_view type, int64_t id,
                                  std::string_view* raw_body) {
  // Bracket-match on raw input without interpreting component payloads:
  // only \begindata / \enddata directive names count, so a damaged marker
  // still moves the depth.  The scanner reads "\\begindata" as an escaped
  // backslash then text, and an unterminated "\name{" ends at its newline.
  if (has_peek_) {
    // A token was peeked past the begindata marker: rewind so its bytes are
    // part of the skipped body (they belong to the object).
    RewindPeek();
  }
  has_stashed_ = false;
  size_t body_start = pos_;
  int depth_needed = 1;
  size_t p = pos_;
  for (size_t b; (b = FindBackslash(data_, p)) != std::string_view::npos;) {
    BackslashUnit unit = ScanBackslash(data_, b);
    p = unit.end;
    if (unit.kind != BackslashUnit::Kind::kDirective) {
      continue;
    }
    if (unit.name == "begindata") {
      ++depth_needed;
    } else if (unit.name == "enddata" && --depth_needed == 0) {
      std::string_view end_type;
      int64_t end_id = 0;
      if (!ParseMarkerArgs(unit.args, &end_type, &end_id) || end_type != type || end_id != id) {
        AddDiagnostic(StatusCode::kCorrupt, b,
                      "skip of \\begindata{" + std::string(type) + "," + std::to_string(id) +
                          "} closed by non-matching \\enddata{" + std::string(unit.args) +
                          "}");
      }
      pos_ = unit.end;
      if (pos_ < data_.size() && data_[pos_] == '\n') {
        ++pos_;
      }
      if (raw_body != nullptr) {
        *raw_body = data_.substr(body_start, b - body_start);
      }
      if (!open_.empty()) {
        open_.pop_back();
      }
      return true;
    }
  }
  // Ran off the end: truncated object.
  MarkTruncated(data_.size(), "input ended while skipping \\begindata{" +
                                  std::string(type) + "," + std::to_string(id) + "}");
  if (raw_body != nullptr) {
    *raw_body = data_.substr(body_start);
  }
  pos_ = data_.size();
  open_.clear();
  return false;
}

}  // namespace atk
