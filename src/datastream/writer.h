// External-representation writer (§5).
//
// Only data objects are written to files.  The single hard architectural
// requirement: every object's output is enclosed in a properly nested
//     \begindata{type,id} ... \enddata{type,id}
// pair, so that any reader can find the extent of any object *without
// parsing its contents*.  A `\view{viewtype,id}` directive marks where a view
// on data object `id` sits inside an enclosing object's content.
//
// The guidelines the paper adds (7-bit printable ASCII, lines under 80
// characters, human-legible) are enforced here: payload text has backslashes
// doubled and non-ASCII bytes hex-escaped as \x{hh}, and the writer records
// the longest line emitted so components can be tested against the 80-column
// guideline.
//
// Emission is chunked (PR 5): each public call assembles its bytes in an
// internal chunk buffer and hands the ostream one write, instead of one
// ostream::put per byte.  WriteText escapes with AppendEscapedPayload, the
// §5 scanner's escaper (src/datastream/scanner.h), which appends each clean
// run in one go; line/column stats are updated per line segment, not per
// byte.  The chunk is flushed before a public call returns, so `out` always
// reflects everything written so far — callers that inspect the underlying
// streambuf mid-document see the same bytes the per-char writer produced.

#ifndef ATK_SRC_DATASTREAM_WRITER_H_
#define ATK_SRC_DATASTREAM_WRITER_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/class_system/status.h"

namespace atk {

class DataStreamWriter {
 public:
  explicit DataStreamWriter(std::ostream& out);
  ~DataStreamWriter();

  DataStreamWriter(const DataStreamWriter&) = delete;
  DataStreamWriter& operator=(const DataStreamWriter&) = delete;

  // Opens an object of `type`, assigning and returning a stream-unique id.
  int64_t BeginData(std::string_view type);
  // Opens an object with a caller-chosen id (ids must be unique per stream).
  void BeginDataWithId(std::string_view type, int64_t id);
  // Closes the innermost open object.
  void EndData();

  // Writes a \view{viewtype,id} placement reference.
  void WriteViewReference(std::string_view view_type, int64_t data_id);

  // Writes an arbitrary component directive \name{args}.
  void WriteDirective(std::string_view name, std::string_view args);

  // Writes payload text with escaping: '\' becomes "\\", bytes outside
  // printable 7-bit ASCII (other than \n and \t) become \x{hh}.  Newlines in
  // `text` pass through.
  void WriteText(std::string_view text);
  // WriteText + newline.
  void WriteLine(std::string_view line);
  // Writes already-escaped content verbatim (round-tripping an unknown
  // object's captured raw body).
  void WriteRaw(std::string_view raw);
  void WriteNewline();

  // ---- Object-identity tracking ----
  // DataObject::Write records (object, id) here so that a later object in
  // the same stream can reference an earlier one (the chart's
  // \chartsource{id} pointing at its table).
  void RegisterObjectId(const void* object, int64_t id);
  // The id `object` was written under, or 0 when not yet written.
  int64_t FindObjectId(const void* object) const;

  // Current nesting depth (open BeginData count).
  int depth() const { return static_cast<int>(stack_.size()); }

  // True when every BeginData has been closed.
  bool balanced() const { return stack_.empty(); }

  // Structural problems recorded while writing (EndData with no open object,
  // duplicate caller-chosen ids).  A clean write leaves this empty.
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  // Call when the document is complete: OK when the stream is balanced and
  // no diagnostics were recorded, otherwise a Corrupt status naming the
  // first problem.  The stream itself is already on disk either way — this
  // is the report-instead-of-ignore half of the §5 recovery posture.
  Status Finish() const;

  // ---- Stats (for the §5 guideline tests and bench_datastream) ----
  int64_t bytes_written() const { return bytes_written_; }
  int max_line_length() const { return max_line_length_; }
  int max_depth() const { return max_depth_; }
  bool all_seven_bit() const { return all_seven_bit_; }

 private:
  struct OpenObject {
    std::string type;
    int64_t id;
  };

  // Appends to the pending chunk; stats are settled when the chunk flushes.
  void EmitChunk(std::string_view s);
  // One ostream write for the pending chunk + bulk line/column accounting.
  void FlushChunk();
  void Account(std::string_view s);

  std::ostream& out_;
  std::string chunk_;
  std::vector<OpenObject> stack_;
  std::vector<Diagnostic> diagnostics_;
  std::map<const void*, int64_t> object_ids_;
  std::map<int64_t, std::string> ids_in_use_;
  int64_t next_id_ = 1;
  int64_t bytes_written_ = 0;
  int column_ = 0;
  int max_line_length_ = 0;
  int max_depth_ = 0;
  bool all_seven_bit_ = true;
};

}  // namespace atk

#endif  // ATK_SRC_DATASTREAM_WRITER_H_
