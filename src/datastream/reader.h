// External-representation reader (§5) — zero-copy streaming pipeline.
//
// Tokenizes a datastream into text fragments and directives.  Two properties
// the toolkit depends on are implemented here:
//
//  * SkipObject: after seeing \begindata{type,id}, the extent of the object
//    can be found by bracket-matching alone — no component code needed — and
//    the raw body captured for verbatim re-emission (this is how a document
//    containing a component you don't have survives an edit/save cycle).
//  * Truncation recovery: when input ends with markers still open, the
//    reader reports `truncated()` and what was parsed remains valid — the
//    paper's "easier recovery when files are partially destroyed".
//
// Zero-copy design (PR 5).  The input buffer is *pinned*: the owning-string
// constructor takes the bytes and never reallocates them; the istream
// constructor reads in large chunks before pinning; the string_view
// constructor borrows bytes the caller keeps alive.  Token `text`/`type` are
// std::string_view slices — either directly into the pinned buffer (the
// common case: any text run without escapes, every directive) or into a
// reader-owned unescape arena (text runs containing \\ or \x{hh} escapes,
// which are bulk-unescaped on demand).  Either way the rule is the same:
// **tokens die when the reader dies.**  Callers that need bytes beyond the
// reader's lifetime must copy (UnknownObject does).  Text scanning is
// memchr-driven: bytes between backslashes are never touched one at a time,
// and what starts at each backslash is read by the one §5 scanner
// (src/datastream/scanner.h) that SkipObject and the salvager use too.
//
// Malformed input is never silently swallowed: damaged directives (a marker
// with a missing id, an unterminated `{...}`, an id that is not digits or
// does not fit int64_t) surface as kDiagnostic tokens carrying the raw
// damaged bytes, and every recovery the reader performs is recorded in
// `diagnostics()` with a byte offset, so a salvage pass
// (src/robustness/salvage.h) can locate the damage exactly.
// Offsets are byte positions in the pinned buffer.
//
// Behavioural identity with the pre-rewrite lexer (token boundaries, token
// bytes, diagnostics, recovery) is pinned by the 64-seed differential sweep
// in tests/test_datastream_differential.cc against the frozen
// BaselineDataStreamReader, a test oracle kept in tests/baseline_reader.h
// and compiled into no toolkit library.

#ifndef ATK_SRC_DATASTREAM_READER_H_
#define ATK_SRC_DATASTREAM_READER_H_

#include <cstdint>
#include <deque>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "src/class_system/status.h"
#include "src/observability/memory.h"

namespace atk {

struct BackslashUnit;

// Memory accounts for the reader's owned pools: `datastream.mem.pinned`
// (owning-constructor backing buffers) and `datastream.mem.scratch` (the
// unescape arena).  Borrowed buffers are charged by their owners.
observability::MemoryAccount& DataStreamPinnedAccount();
observability::MemoryAccount& DataStreamScratchAccount();

class DataStreamReader {
 public:
  struct Token {
    enum class Kind {
      kText,       // Unescaped payload text (may span newlines up to the next directive).
      kBeginData,  // \begindata{type,id}
      kEndData,    // \enddata{type,id}
      kViewRef,    // \view{viewtype,id}
      kDirective,  // any other \name{args}
      kDiagnostic, // a damaged directive; `text` holds the raw bytes.
      kEof,
    };

    Kind kind = Kind::kEof;
    // kText: payload; kDirective: args; kDiagnostic: raw bytes.  A slice of
    // the pinned buffer or the reader's unescape arena — valid only while
    // the reader lives.
    std::string_view text;
    // Marker type / directive name / view type.  Same lifetime rule.
    std::string_view type;
    int64_t id = 0;    // marker or view-reference id.
    size_t offset = 0; // Byte offset where the token started (diagnostics).
  };

  // Owning constructor: pins `input` for the reader's lifetime.
  explicit DataStreamReader(std::string input);
  // String literals own-by-copy (disambiguates from the borrowing ctor).
  explicit DataStreamReader(const char* input) : DataStreamReader(std::string(input)) {}
  // Reads `in` to EOF in large chunks (no ostringstream detour), then pins.
  explicit DataStreamReader(std::istream& in);
  // Borrowing constructor: the caller guarantees `pinned` outlives the
  // reader.
  explicit DataStreamReader(std::string_view pinned);

  // Returns the next token.  At end of input returns kEof forever.
  Token Next();

  // Peek without consuming.  The reader snapshots its lexer state so a
  // following SkipObject can rewind over the peeked token (see below).
  const Token& Peek();

  // Call after consuming a kBeginData token to skip the whole object without
  // parsing it.  Nested objects are skipped by bracket matching.  When
  // `raw_body` is non-null it receives a view of the object's body
  // *verbatim* (escapes intact, inner markers intact, valid while the
  // reader lives), suitable for WriteRaw.  Returns false when input ends
  // before the matching \enddata (the stream is then marked truncated).
  //
  // If a token has been Peeked but not consumed, the reader rewinds to the
  // peek point first, so the peeked token's bytes are part of the skipped
  // body instead of being silently dropped (the pre-PR-5 footgun).
  bool SkipObject(std::string_view type, int64_t id, std::string_view* raw_body = nullptr);

  // Nesting depth of open \begindata markers seen so far.
  int depth() const { return static_cast<int>(open_.size()); }

  // True once input ended with unbalanced markers or a malformed directive
  // was recovered from.
  bool truncated() const { return truncated_; }
  bool saw_malformed() const { return saw_malformed_; }

  // Every recovery performed so far: truncations, damaged directives, marker
  // mismatches, lone backslashes — each with the byte offset of the damage.
  // Generalizes `truncated()`; empty means the input parsed clean.
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  // Byte offset of the read cursor within this reader's input (diagnostics,
  // bench).
  size_t position() const { return pos_; }
  size_t input_size() const { return data_.size(); }

  // Bytes copied into the unescape arena so far; 0 for escape-free input
  // (the zero-copy invariant, asserted by tests).
  size_t scratch_bytes() const { return scratch_bytes_; }

 private:
  struct OpenMarker {
    std::string type;
    int64_t id;
  };

  // Lexer state snapshot for the Peek -> SkipObject rewind.
  struct PeekRewind {
    size_t pos = 0;
    size_t open_size = 0;
    OpenMarker reopened;        // Marker popped by a peeked \enddata.
    bool repush = false;
    size_t diagnostics_size = 0;
    bool truncated = false;
    bool saw_malformed = false;
    bool has_stashed = false;
    Token stashed;
  };

  Token Lex();
  // The token for a scanned directive or unterminated directive starting at
  // `start`; moves pos_ past it.  Damaged directives (unterminated brace,
  // malformed marker args) become kDiagnostic tokens so the damage is
  // surfaced, not swallowed.
  Token LexDirective(const BackslashUnit& unit, size_t start);
  void AddDiagnostic(StatusCode code, size_t offset, std::string message);
  void MarkTruncated(size_t offset, std::string message);
  void RewindPeek();
  // Moves `pending` into the arena and returns a stable view of it.
  std::string_view Intern(std::string&& pending);

  std::string owned_;       // Backing bytes for the owning constructors.
  std::string_view data_;   // The pinned buffer all views slice into.
  size_t pos_ = 0;
  std::vector<OpenMarker> open_;
  std::vector<Diagnostic> diagnostics_;
  bool truncated_ = false;
  bool saw_malformed_ = false;
  bool has_peek_ = false;
  Token peek_;
  PeekRewind peek_rewind_;
  // A directive token produced while flushing preceding text out of Lex().
  bool has_stashed_ = false;
  Token stashed_;
  // Unescaped text storage: deque elements never move, so views into them
  // stay valid for the reader's lifetime.
  std::deque<std::string> arena_;
  size_t scratch_bytes_ = 0;
  // Byte accounting (released when the reader dies; transferred on move).
  observability::ScopedCharge pinned_mem_;
  observability::ScopedCharge scratch_mem_;
};

}  // namespace atk

#endif  // ATK_SRC_DATASTREAM_READER_H_
