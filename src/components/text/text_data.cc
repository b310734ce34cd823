#include "src/components/text/text_data.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "src/base/default_views.h"
#include "src/datastream/directive_args.h"

namespace atk {

ATK_DEFINE_CLASS(TextData, DataObject, "text")

TextData::TextData() = default;

TextData::~TextData() = default;

// memchr jumps newline to newline instead of testing every byte; on bulk
// ingestion this is the difference between the count being free and being
// a third of the read path.
static int64_t CountNewlines(std::string_view text) {
  int64_t count = 0;
  size_t from = 0;
  while (from < text.size()) {
    const void* hit = std::memchr(text.data() + from, '\n', text.size() - from);
    if (hit == nullptr) {
      break;
    }
    ++count;
    from = static_cast<size_t>(static_cast<const char*>(hit) - text.data()) + 1;
  }
  return count;
}

// Newlines in [pos, pos + len) of `buffer`, counted in place on both sides of
// the gap.
static int64_t CountNewlines(const GapBuffer& buffer, int64_t pos, int64_t len) {
  auto [before, after] = buffer.Pieces(pos, len);
  return CountNewlines(before) + CountNewlines(after);
}

void TextData::InsertString(int64_t pos, std::string_view text) {
  if (pos < 0 || pos > size() || text.empty()) {
    return;
  }
  buffer_.Insert(pos, text);
  newline_count_ += CountNewlines(text);
  AdjustForInsert(pos, static_cast<int64_t>(text.size()));
  Change change;
  change.kind = Change::Kind::kInserted;
  change.pos = pos;
  change.added = static_cast<int64_t>(text.size());
  NotifyObservers(change);
}

void TextData::DeleteRange(int64_t pos, int64_t len) {
  if (pos < 0 || len <= 0 || pos >= size()) {
    return;
  }
  len = std::min(len, size() - pos);
  newline_count_ -= CountNewlines(buffer_, pos, len);
  buffer_.Delete(pos, len);
  AdjustForDelete(pos, len);
  Change change;
  change.kind = Change::Kind::kDeleted;
  change.pos = pos;
  change.removed = len;
  NotifyObservers(change);
}

void TextData::Clear() { DeleteRange(0, size()); }

void TextData::SetText(std::string_view text) {
  if (size() > 0) {
    newline_count_ = 0;
    buffer_.Delete(0, size());
    embedded_.clear();
    runs_.clear();
    IndexRuns();
  }
  buffer_.Insert(0, text);
  newline_count_ = CountNewlines(text);
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
}

DataObject* TextData::InsertObject(int64_t pos, std::unique_ptr<DataObject> data,
                                   std::string_view view_type) {
  return InsertSharedObject(pos, std::shared_ptr<DataObject>(std::move(data)), view_type);
}

DataObject* TextData::InsertSharedObject(int64_t pos, std::shared_ptr<DataObject> data,
                                         std::string_view view_type) {
  if (data == nullptr || pos < 0 || pos > size()) {
    return nullptr;
  }
  DataObject* raw = data.get();
  std::string view =
      view_type.empty() ? DefaultViewName(data->DataTypeName()) : std::string(view_type);
  buffer_.Insert(pos, std::string_view(&kObjectChar, 1));
  AdjustForInsert(pos, 1);
  EmbeddedObject embedded;
  embedded.pos = pos;
  embedded.data = std::move(data);
  embedded.view_type = std::move(view);
  embedded.anchor_id = next_anchor_id_++;
  auto it = std::lower_bound(embedded_.begin(), embedded_.end(), pos,
                             [](const EmbeddedObject& e, int64_t p) { return e.pos < p; });
  embedded_.insert(it, std::move(embedded));
  Change change;
  change.kind = Change::Kind::kInserted;
  change.pos = pos;
  change.added = 1;
  NotifyObservers(change);
  return raw;
}

const TextData::EmbeddedObject* TextData::EmbeddedAt(int64_t pos) const {
  auto it = std::lower_bound(embedded_.begin(), embedded_.end(), pos,
                             [](const EmbeddedObject& e, int64_t p) { return e.pos < p; });
  if (it != embedded_.end() && it->pos == pos) {
    return &*it;
  }
  return nullptr;
}

void TextData::AdjustForInsert(int64_t pos, int64_t len) {
  for (EmbeddedObject& e : embedded_) {
    if (e.pos >= pos) {
      e.pos += len;
    }
  }
  for (StyleRun& run : runs_) {
    if (pos <= run.pos) {
      run.pos += len;
    } else if (pos < run.pos + run.len) {
      run.len += len;  // Typing inside a styled run keeps the style.
    }
  }
  IndexRuns();
}

void TextData::AdjustForDelete(int64_t pos, int64_t len) {
  int64_t end = pos + len;
  embedded_.erase(std::remove_if(embedded_.begin(), embedded_.end(),
                                 [&](const EmbeddedObject& e) {
                                   return e.pos >= pos && e.pos < end;
                                 }),
                  embedded_.end());
  for (EmbeddedObject& e : embedded_) {
    if (e.pos >= end) {
      e.pos -= len;
    }
  }
  for (StyleRun& run : runs_) {
    int64_t run_end = run.pos + run.len;
    int64_t new_start = run.pos >= end ? run.pos - len : std::min(run.pos, pos);
    int64_t new_end = run_end >= end ? run_end - len : std::min(run_end, pos);
    run.pos = new_start;
    run.len = std::max<int64_t>(0, new_end - new_start);
  }
  NormalizeRuns();
}

void TextData::NormalizeRuns() {
  runs_.erase(std::remove_if(runs_.begin(), runs_.end(),
                             [](const StyleRun& r) { return r.len <= 0; }),
              runs_.end());
  std::sort(runs_.begin(), runs_.end(),
            [](const StyleRun& a, const StyleRun& b) { return a.pos < b.pos; });
  // Merge adjacent runs of the same style.
  std::vector<StyleRun> merged;
  for (StyleRun& run : runs_) {
    if (!merged.empty() && merged.back().style == run.style &&
        merged.back().pos + merged.back().len == run.pos) {
      merged.back().len += run.len;
    } else {
      merged.push_back(std::move(run));
    }
  }
  runs_ = std::move(merged);
  IndexRuns();
}

void TextData::IndexRuns() {
  run_end_max_.resize(runs_.size());
  int64_t end_max = 0;
  for (size_t i = 0; i < runs_.size(); ++i) {
    end_max = std::max(end_max, runs_[i].pos + runs_[i].len);
    run_end_max_[i] = end_max;
  }
}

void TextData::ApplyStyle(int64_t pos, int64_t len, std::string_view style_name) {
  if (pos < 0 || len <= 0 || pos >= size()) {
    return;
  }
  len = std::min(len, size() - pos);
  {
    // Carve the range out of existing runs.
    int64_t end = pos + len;
    std::vector<StyleRun> next;
    for (const StyleRun& run : runs_) {
      int64_t run_end = run.pos + run.len;
      if (run_end <= pos || run.pos >= end) {
        next.push_back(run);
        continue;
      }
      if (run.pos < pos) {
        next.push_back(StyleRun{run.pos, pos - run.pos, run.style});
      }
      if (run_end > end) {
        next.push_back(StyleRun{end, run_end - end, run.style});
      }
    }
    runs_ = std::move(next);
  }
  if (style_name != "default") {
    runs_.push_back(StyleRun{pos, len, std::string(style_name)});
  }
  NormalizeRuns();
  Change change;
  change.kind = Change::Kind::kAttributes;
  change.pos = pos;
  change.removed = len;
  NotifyObservers(change);
}

void TextData::ClearStyles(int64_t pos, int64_t len) { ApplyStyle(pos, len, "default"); }

const std::string& TextData::StyleNameAt(int64_t pos) const {
  // Every run before the first whose end-prefix-max passes `pos` ends at or
  // before `pos`.  That run is the first one ending after `pos`, so it is the
  // first containing `pos` if it starts by `pos`; otherwise no run does,
  // since all later runs start after it.
  auto it = std::upper_bound(run_end_max_.begin(), run_end_max_.end(), pos);
  if (it != run_end_max_.end()) {
    const StyleRun& run = runs_[static_cast<size_t>(it - run_end_max_.begin())];
    if (run.pos <= pos) {
      return run.style;
    }
  }
  return default_style_name_;
}

const Style& TextData::StyleAt(int64_t pos) const { return styles_.Get(StyleNameAt(pos)); }

int64_t TextData::LineStart(int64_t pos) const {
  pos = std::clamp<int64_t>(pos, 0, size());
  int64_t nl = buffer_.RFind('\n', pos);
  return nl < 0 ? 0 : nl + 1;
}

int64_t TextData::LineEnd(int64_t pos) const {
  pos = std::clamp<int64_t>(pos, 0, size());
  int64_t nl = buffer_.Find('\n', pos);
  return nl < 0 ? size() : nl;
}

int64_t TextData::PosOfLine(int64_t index) const {
  if (index <= 0) {
    return 0;
  }
  int64_t pos = 0;
  for (int64_t line = 0; line < index; ++line) {
    int64_t nl = buffer_.Find('\n', pos);
    if (nl < 0) {
      return size();
    }
    pos = nl + 1;
  }
  return pos;
}

int64_t TextData::LineOfPos(int64_t pos) const {
  return CountNewlines(buffer_, 0, std::clamp<int64_t>(pos, 0, size()));
}

void TextData::WriteBody(DataStreamWriter& writer) const {
  // Custom style definitions first, then runs, then content.
  for (const Style* style : styles_.CustomStyles()) {
    writer.WriteDirective("definestyle", style->name + "," + style->Serialize());
    writer.WriteNewline();
  }
  for (const StyleRun& run : runs_) {
    writer.WriteDirective("textstyle", run.style + "," + std::to_string(run.pos) + "," +
                                           std::to_string(run.len));
    writer.WriteNewline();
  }
  // Content: text with anchors expanded to child blocks + \view references.
  // An object shared by several anchors is written once; later anchors emit
  // only the \view reference to its id.
  int64_t pos = 0;
  for (const EmbeddedObject& embedded : embedded_) {
    writer.WriteText(buffer_.Substr(pos, embedded.pos - pos));
    int64_t child_id = writer.FindObjectId(embedded.data.get());
    if (child_id == 0) {
      child_id = embedded.data->Write(writer);
    }
    writer.WriteViewReference(embedded.view_type, child_id);
    pos = embedded.pos + 1;  // Skip the anchor character.
  }
  writer.WriteText(buffer_.Substr(pos, size() - pos));
}

bool TextData::ReadBody(DataStreamReader& reader, ReadContext& context) {
  using Kind = DataStreamReader::Token::Kind;
  buffer_.Delete(0, size());
  embedded_.clear();
  runs_.clear();
  IndexRuns();
  newline_count_ = 0;
  // Bulk ingestion: the body is at most the rest of the reader's input, so
  // one reservation up front makes the kText inserts gap-growth-free.  Only
  // the outermost object reserves: a nested text would claim the rest of the
  // whole document, once per embedded text.
  if (reader.depth() == 1) {
    buffer_.Reserve(reader.input_size() - reader.position());
  }
  std::vector<StyleRun> pending_runs;
  // Children arrive before the \view reference(s) that place them; a child
  // may be referenced by several anchors (shared data object, §2).
  std::map<int64_t, std::shared_ptr<DataObject>> pending_children;
  // Our writer puts a cosmetic newline after each style directive; strip it.
  bool strip_newline = false;
  while (true) {
    DataStreamReader::Token token = reader.Next();
    if (strip_newline) {
      strip_newline = false;
      if (token.kind == Kind::kText && !token.text.empty() && token.text[0] == '\n') {
        token.text.remove_prefix(1);
        if (token.text.empty()) {
          continue;
        }
      }
    }
    switch (token.kind) {
      case Kind::kEndData: {
        runs_ = std::move(pending_runs);
        NormalizeRuns();
        // Any children never claimed by a \view reference are dropped.
        Change change;
        change.kind = Change::Kind::kModified;
        NotifyObservers(change);
        return true;
      }
      case Kind::kEof:
        runs_ = std::move(pending_runs);
        NormalizeRuns();
        return false;
      case Kind::kText: {
        buffer_.Insert(size(), token.text);
        newline_count_ += CountNewlines(token.text);
        break;
      }
      case Kind::kBeginData: {
        std::unique_ptr<DataObject> child =
            ReadObjectBody(reader, context, std::string(token.type), token.id);
        if (child != nullptr) {
          pending_children[token.id] = std::shared_ptr<DataObject>(std::move(child));
        }
        break;
      }
      case Kind::kViewRef: {
        auto it = pending_children.find(token.id);
        if (it == pending_children.end()) {
          context.AddError("\\view reference to unknown id " + std::to_string(token.id));
          break;
        }
        EmbeddedObject embedded;
        embedded.pos = size();
        embedded.data = it->second;  // Shared: later refs reuse the object.
        embedded.view_type = token.type;
        embedded.anchor_id = next_anchor_id_++;
        buffer_.Insert(size(), std::string_view(&kObjectChar, 1));
        embedded_.push_back(std::move(embedded));
        break;
      }
      case Kind::kDirective: {
        if (token.type == "textstyle") {
          // name,pos,len
          DirectiveArgs args(token.text);
          std::string_view name;
          StyleRun run;
          if (args.Name(name) && args.Int(run.pos) && args.Int(run.len) && run.pos >= 0) {
            run.style = name;
            pending_runs.push_back(std::move(run));
          }
        } else if (token.type == "definestyle") {
          size_t c1 = token.text.find(',');
          if (c1 != std::string_view::npos) {
            styles_.Define(Style::Deserialize(token.text.substr(0, c1),
                                              token.text.substr(c1 + 1)));
          }
        }
        if (token.type == "textstyle" || token.type == "definestyle") {
          strip_newline = true;
        }
        // Unknown directives are tolerated (forward compatibility).
        break;
      }
      case Kind::kDiagnostic: {
        // Damaged directive inside the body: report it, drop the bytes from
        // the content (the salvager preserves them; the editor must not show
        // marker debris as prose).
        context.AddDiagnostic(
            Diagnostic{StatusCode::kCorrupt, token.offset,
                       "damaged directive in text body: " + std::string(token.text)});
        break;
      }
    }
  }
}

}  // namespace atk
