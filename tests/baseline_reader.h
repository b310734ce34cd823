// The pre-zero-copy datastream lexer, frozen as a baseline.
//
// This is the PR-5 snapshot of DataStreamReader before the pinned-buffer
// rewrite: it materializes an owning std::string per token and accumulates
// text byte-by-byte.  It is a test oracle, not part of the toolkit: it lives
// under tests/ and is compiled only into its two users, never into
// atk_datastream.
//
//  * bench_datastream's BM_ReadDocumentBySize_Baseline measures the copying
//    ingestion path against the zero-copy one, and a perf_guard gate line in
//    bench/perf_baseline.json pins the speedup;
//  * tests/test_datastream_differential.cc sweeps seeded clean / truncated /
//    corrupted inputs through both lexers and asserts token-for-token and
//    diagnostic-for-diagnostic equivalence, so the zero-copy rewrite can
//    never silently change what the toolkit parses.
//
// Do not extend this class; behavioural changes belong in DataStreamReader
// and will be caught by the differential sweep if they diverge.

#ifndef ATK_TESTS_BASELINE_READER_H_
#define ATK_TESTS_BASELINE_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/class_system/status.h"

namespace atk {

class BaselineDataStreamReader {
 public:
  struct Token {
    enum class Kind {
      kText,
      kBeginData,
      kEndData,
      kViewRef,
      kDirective,
      kDiagnostic,
      kEof,
    };

    Kind kind = Kind::kEof;
    std::string text;
    std::string type;
    int64_t id = 0;
    size_t offset = 0;
  };

  explicit BaselineDataStreamReader(std::string input);

  Token Next();
  const Token& Peek();
  bool SkipObject(std::string_view type, int64_t id, std::string* raw_body = nullptr);

  int depth() const { return static_cast<int>(open_.size()); }
  bool truncated() const { return truncated_; }
  bool saw_malformed() const { return saw_malformed_; }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  size_t position() const { return pos_; }
  size_t input_size() const { return input_.size(); }

 private:
  struct OpenMarker {
    std::string type;
    int64_t id;
  };

  Token Lex();
  bool LexDirective(Token* token);
  void AddDiagnostic(StatusCode code, size_t offset, std::string message);
  void MarkTruncated(size_t offset, std::string message);

  std::string input_;
  size_t pos_ = 0;
  std::vector<OpenMarker> open_;
  std::vector<Diagnostic> diagnostics_;
  bool truncated_ = false;
  bool saw_malformed_ = false;
  bool has_peek_ = false;
  Token peek_;
  bool has_stashed_ = false;
  Token stashed_;
};

}  // namespace atk

#endif  // ATK_TESTS_BASELINE_READER_H_
