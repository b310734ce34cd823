// TextData — the multi-media text data object (§2).
//
// Holds "the actual characters, style information and pointers to embedded
// data objects".  An embedded object occupies one anchor character
// (kObjectChar) in the text; a side table maps anchor positions to the owned
// child data object and the view class that should display it.  Style runs
// are (pos, len, style-name) intervals resolved against the document's
// StyleSheet.
//
// External representation: the body is the escaped text, with each anchor
// replaced by the child's \begindata...\enddata block followed by
// \view{viewtype,id}; style runs and custom style definitions are emitted as
// \textstyle / \definestyle directives ahead of the content.

#ifndef ATK_SRC_COMPONENTS_TEXT_TEXT_DATA_H_
#define ATK_SRC_COMPONENTS_TEXT_TEXT_DATA_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/data_object.h"
#include "src/components/text/gap_buffer.h"
#include "src/components/text/style.h"

namespace atk {

class TextData : public DataObject {
  ATK_DECLARE_CLASS(TextData)

 public:
  // The anchor character standing in for an embedded object.
  static constexpr char kObjectChar = '\001';

  struct EmbeddedObject {
    int64_t pos = 0;
    // Shared: §2 allows "two embedded views on the same data object within
    // the same window", i.e. several anchors referencing one data object.
    std::shared_ptr<DataObject> data;
    std::string view_type;
    // Stable identity for this anchor (view caching keys on it; two anchors
    // on one data object are two distinct embedded views).
    uint64_t anchor_id = 0;
  };

  struct StyleRun {
    int64_t pos = 0;
    int64_t len = 0;
    std::string style;
  };

  TextData();
  ~TextData() override;

  // ---- Content access ----
  int64_t size() const { return buffer_.size(); }
  char CharAt(int64_t pos) const { return pos >= 0 && pos < size() ? buffer_.At(pos) : '\0'; }
  std::string GetText(int64_t pos, int64_t len) const { return buffer_.Substr(pos, len); }
  std::string GetAllText() const { return buffer_.All(); }

  // ---- Editing (each call notifies observers once) ----
  void InsertString(int64_t pos, std::string_view text);
  void DeleteRange(int64_t pos, int64_t len);
  void Clear();
  // Replaces the whole content (initialization convenience).
  void SetText(std::string_view text);

  // ---- Embedded objects ----
  // Inserts an anchor at `pos` taking ownership of `data`; `view_type` empty
  // means the data type's registered default view.  Returns the child.
  DataObject* InsertObject(int64_t pos, std::unique_ptr<DataObject> data,
                           std::string_view view_type = "");
  // Shared-ownership variant: several anchors (possibly with different view
  // classes) may display one data object (§2's table + pie chart example).
  DataObject* InsertSharedObject(int64_t pos, std::shared_ptr<DataObject> data,
                                 std::string_view view_type = "");
  // The embedded object whose anchor is at `pos`, or nullptr.
  const EmbeddedObject* EmbeddedAt(int64_t pos) const;
  const std::vector<EmbeddedObject>& embedded_objects() const { return embedded_; }
  size_t embedded_count() const { return embedded_.size(); }

  // ---- Styles ----
  StyleSheet& styles() { return styles_; }
  const StyleSheet& styles() const { return styles_; }
  // Applies `style_name` to [pos, pos+len), splitting/merging runs.
  void ApplyStyle(int64_t pos, int64_t len, std::string_view style_name);
  // Removes all styling from the range (reverts to "default").
  void ClearStyles(int64_t pos, int64_t len);
  // The style governing the character at `pos`: that of the first run in
  // style_runs() order containing it (runs read from a document may
  // overlap), or "default".  O(log runs).
  const Style& StyleAt(int64_t pos) const;
  const std::string& StyleNameAt(int64_t pos) const;
  const std::vector<StyleRun>& style_runs() const { return runs_; }

  // ---- Line helpers (used by views and the typescript component) ----
  int64_t LineStart(int64_t pos) const;
  int64_t LineEnd(int64_t pos) const;  // Position of the '\n' or size().
  // Total number of lines (empty document has 1).
  int64_t LineCount() const { return newline_count_ + 1; }
  // Start position of 0-based line `index` (clamped).
  int64_t PosOfLine(int64_t index) const;
  // 0-based line index containing `pos`.
  int64_t LineOfPos(int64_t pos) const;

  // ---- Datastream ----
  void WriteBody(DataStreamWriter& writer) const override;
  bool ReadBody(DataStreamReader& reader, ReadContext& context) override;

 private:
  void AdjustForInsert(int64_t pos, int64_t len);
  void AdjustForDelete(int64_t pos, int64_t len);
  void NormalizeRuns();
  // Rebuilds run_end_max_; called wherever runs_ changes.
  void IndexRuns();

  GapBuffer buffer_;
  std::vector<EmbeddedObject> embedded_;  // Sorted by pos.
  uint64_t next_anchor_id_ = 1;
  // Sorted by pos.  Edits keep runs disjoint, but \textstyle runs read from
  // a document are not validated and may overlap.
  std::vector<StyleRun> runs_;
  // run_end_max_[i] is the largest pos + len among runs_[0..i]: the
  // non-decreasing key StyleNameAt binary-searches.
  std::vector<int64_t> run_end_max_;
  StyleSheet styles_;
  int64_t newline_count_ = 0;
  std::string default_style_name_ = "default";
};

}  // namespace atk

#endif  // ATK_SRC_COMPONENTS_TEXT_TEXT_DATA_H_
