#include "src/components/table/table_data.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>

#include "src/base/default_views.h"
#include "src/datastream/directive_args.h"

namespace atk {

ATK_DEFINE_CLASS(TableData, DataObject, "table")

namespace {
constexpr int kDefaultColWidth = 64;

// atof's value for a number cell's text.  The writer's "%.17g" output is
// consumed whole by from_chars; anything else (a leading blank or '+', hex,
// trailing junk, an out-of-range exponent) goes through atof itself.
double ParseNumber(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  std::from_chars_result parsed = std::from_chars(text.data(), end, value);
  if (parsed.ec == std::errc() && parsed.ptr == end) {
    return value;
  }
  return std::atof(std::string(text).c_str());
}
}  // namespace

// A fresh table is 4x4 and empty: it has no formulas to recalculate and no
// observers to notify, and ReadBody replaces its shape anyway.
TableData::TableData()
    : rows_(4), cols_(4), cells_(16), col_widths_(4, kDefaultColWidth) {}

TableData::~TableData() = default;

void TableData::Resize(int rows, int cols) {
  rows = std::max(rows, 0);
  cols = std::max(cols, 0);
  auto is_empty = [](const Cell& cell) { return cell.kind == CellKind::kEmpty; };
  if (std::all_of(cells_.begin(), cells_.end(), is_empty)) {
    // Nothing to carry over (a new table, or one being read): reuse the
    // storage.
    cells_.clear();
    cells_.resize(static_cast<size_t>(rows) * cols);
  } else {
    std::vector<Cell> next(static_cast<size_t>(rows) * cols);
    for (int r = 0; r < std::min(rows, rows_); ++r) {
      for (int c = 0; c < std::min(cols, cols_); ++c) {
        next[static_cast<size_t>(r) * cols + c] = std::move(cells_[Index(r, c)]);
      }
    }
    cells_ = std::move(next);
  }
  rows_ = rows;
  cols_ = cols;
  col_widths_.resize(static_cast<size_t>(cols), kDefaultColWidth);
  if (!in_bulk_load_) {
    Recalculate();
    Change change;
    change.kind = Change::Kind::kModified;
    NotifyObservers(change);
  }
}

void TableData::InsertRow(int before) {
  before = std::clamp(before, 0, rows_);
  std::vector<Cell> next(static_cast<size_t>(rows_ + 1) * cols_);
  for (int r = 0; r < rows_; ++r) {
    int nr = r < before ? r : r + 1;
    for (int c = 0; c < cols_; ++c) {
      next[static_cast<size_t>(nr) * cols_ + c] = std::move(cells_[Index(r, c)]);
    }
  }
  cells_ = std::move(next);
  ++rows_;
  Recalculate();
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
}

void TableData::DeleteRow(int row) {
  if (row < 0 || row >= rows_ || rows_ == 1) {
    return;
  }
  std::vector<Cell> next(static_cast<size_t>(rows_ - 1) * cols_);
  for (int r = 0; r < rows_; ++r) {
    if (r == row) {
      continue;
    }
    int nr = r < row ? r : r - 1;
    for (int c = 0; c < cols_; ++c) {
      next[static_cast<size_t>(nr) * cols_ + c] = std::move(cells_[Index(r, c)]);
    }
  }
  cells_ = std::move(next);
  --rows_;
  Recalculate();
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
}

void TableData::InsertCol(int before) {
  before = std::clamp(before, 0, cols_);
  std::vector<Cell> next(static_cast<size_t>(rows_) * (cols_ + 1));
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      int nc = c < before ? c : c + 1;
      next[static_cast<size_t>(r) * (cols_ + 1) + nc] = std::move(cells_[Index(r, c)]);
    }
  }
  cells_ = std::move(next);
  ++cols_;
  col_widths_.insert(col_widths_.begin() + before, kDefaultColWidth);
  Recalculate();
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
}

void TableData::DeleteCol(int col) {
  if (col < 0 || col >= cols_ || cols_ == 1) {
    return;
  }
  std::vector<Cell> next(static_cast<size_t>(rows_) * (cols_ - 1));
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      if (c == col) {
        continue;
      }
      int nc = c < col ? c : c - 1;
      next[static_cast<size_t>(r) * (cols_ - 1) + nc] = std::move(cells_[Index(r, c)]);
    }
  }
  cells_ = std::move(next);
  --cols_;
  col_widths_.erase(col_widths_.begin() + col);
  Recalculate();
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
}

int TableData::ColWidth(int col) const {
  if (col < 0 || col >= cols_) {
    return kDefaultColWidth;
  }
  return col_widths_[static_cast<size_t>(col)];
}

void TableData::SetColWidth(int col, int width) {
  if (col < 0 || col >= cols_) {
    return;
  }
  col_widths_[static_cast<size_t>(col)] = std::max(12, width);
  if (in_bulk_load_) {
    return;
  }
  Change change;
  change.kind = Change::Kind::kAttributes;
  change.pos = -1;
  change.detail = col;
  NotifyObservers(change);
}

const TableData::Cell& TableData::at(int row, int col) const {
  static const Cell kEmptyCell;
  if (!InBounds(row, col)) {
    return kEmptyCell;
  }
  return cells_[Index(row, col)];
}

TableData::Cell& TableData::MutableAt(int row, int col) { return cells_[Index(row, col)]; }

void TableData::NotifyCell(int row, int col) {
  if (in_bulk_load_) {
    return;
  }
  Recalculate();
  Change change;
  change.kind = Change::Kind::kReplaced;
  change.pos = row;
  change.detail = col;
  NotifyObservers(change);
}

void TableData::ClearCell(int row, int col) {
  if (!InBounds(row, col)) {
    return;
  }
  MutableAt(row, col) = Cell{};
  NotifyCell(row, col);
}

void TableData::SetText(int row, int col, std::string_view text) {
  if (!InBounds(row, col)) {
    return;
  }
  Cell& cell = MutableAt(row, col);
  cell = Cell{};
  cell.kind = CellKind::kText;
  cell.text = std::string(text);
  NotifyCell(row, col);
}

void TableData::SetNumber(int row, int col, double value) {
  if (!InBounds(row, col)) {
    return;
  }
  Cell& cell = MutableAt(row, col);
  cell = Cell{};
  cell.kind = CellKind::kNumber;
  cell.value = value;
  NotifyCell(row, col);
}

void TableData::SetFormula(int row, int col, std::string_view source) {
  if (!InBounds(row, col)) {
    return;
  }
  Cell& cell = MutableAt(row, col);
  cell = Cell{};
  cell.kind = CellKind::kFormula;
  cell.text = std::string(source);
  ParsedFormula parsed = ParseFormula(source);
  if (parsed.ok) {
    cell.expr = std::move(parsed.expr);
  } else {
    cell.error = true;
    cell.error_message = parsed.error;
  }
  NotifyCell(row, col);
}

void TableData::SetFromInput(int row, int col, std::string_view input) {
  if (input.empty()) {
    ClearCell(row, col);
    return;
  }
  if (input[0] == '=') {
    SetFormula(row, col, input.substr(1));
    return;
  }
  char* end = nullptr;
  std::string copy(input);
  double value = std::strtod(copy.c_str(), &end);
  if (end != nullptr && *end == '\0' && end != copy.c_str()) {
    SetNumber(row, col, value);
    return;
  }
  SetText(row, col, input);
}

DataObject* TableData::SetObject(int row, int col, std::unique_ptr<DataObject> data,
                                 std::string_view view_type) {
  if (!InBounds(row, col) || data == nullptr) {
    return nullptr;
  }
  Cell& cell = MutableAt(row, col);
  cell = Cell{};
  cell.kind = CellKind::kObject;
  cell.view_type =
      view_type.empty() ? DefaultViewName(data->DataTypeName()) : std::string(view_type);
  cell.object = std::move(data);
  DataObject* raw = cell.object.get();
  NotifyCell(row, col);
  return raw;
}

double TableData::Value(int row, int col) const {
  const Cell& cell = at(row, col);
  switch (cell.kind) {
    case CellKind::kNumber:
    case CellKind::kFormula:
      return cell.error ? 0.0 : cell.value;
    default:
      return 0.0;
  }
}

std::string TableData::DisplayText(int row, int col) const {
  const Cell& cell = at(row, col);
  switch (cell.kind) {
    case CellKind::kEmpty:
      return "";
    case CellKind::kText:
      return cell.text;
    case CellKind::kObject:
      return "";
    case CellKind::kNumber:
    case CellKind::kFormula: {
      if (cell.error) {
        return "#ERR";
      }
      double v = cell.value;
      char buf[32];
      if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
      } else {
        std::snprintf(buf, sizeof(buf), "%g", v);
      }
      return buf;
    }
  }
  return "";
}

void TableData::Recalculate() {
  ++recalc_count_;
  last_recalc_evaluations_ = 0;
  auto is_formula = [](const Cell& cell) { return cell.kind == CellKind::kFormula; };
  if (std::none_of(cells_.begin(), cells_.end(), is_formula)) {
    return;  // Nothing to evaluate (a freshly read table of text and numbers).
  }
  // Three-color DFS over formula cells; cycles poison every cell on them.
  enum class Mark { kWhite, kGray, kBlack };
  std::vector<Mark> marks(cells_.size(), Mark::kWhite);

  FormulaEnv env;
  env.value = [this](CellRef ref) { return Value(ref.row, ref.col); };
  env.has_error = [this](CellRef ref) {
    const Cell& cell = at(ref.row, ref.col);
    return (cell.kind == CellKind::kFormula || cell.kind == CellKind::kNumber) && cell.error;
  };

  // Recursive evaluation with an explicit lambda (documents are small; the
  // recursion depth is bounded by the dependency chain length).
  std::function<bool(int, int)> evaluate = [&](int row, int col) -> bool {
    // Returns false when the cell is (or depends on) a cycle/error.
    if (!InBounds(row, col)) {
      return true;  // Out-of-range refs read as 0.
    }
    Cell& cell = MutableAt(row, col);
    if (cell.kind != CellKind::kFormula) {
      return true;
    }
    Mark& mark = marks[Index(row, col)];
    if (mark == Mark::kGray) {
      cell.error = true;
      cell.error_message = "circular reference";
      return false;
    }
    if (mark == Mark::kBlack) {
      return !cell.error;
    }
    mark = Mark::kGray;
    bool ok = cell.expr != nullptr;
    if (!ok) {
      cell.error = true;
    } else {
      cell.error = false;
      cell.error_message.clear();
      std::vector<CellRef> refs;
      cell.expr->CollectRefs(refs);
      for (CellRef ref : refs) {
        if (!evaluate(ref.row, ref.col)) {
          ok = false;
        }
      }
      if (ok) {
        ++last_recalc_evaluations_;
        FormulaResult result = cell.expr->Evaluate(env);
        cell.value = result.value;
        cell.error = result.error;
        cell.error_message = result.error_message;
        ok = !result.error;
      } else {
        cell.error = true;
        if (cell.error_message.empty()) {
          cell.error_message = "depends on error cell";
        }
      }
    }
    mark = Mark::kBlack;
    return ok;
  };

  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      if (is_formula(cells_[Index(r, c)])) {
        evaluate(r, c);
      }
    }
  }
}

void TableData::WriteBody(DataStreamWriter& writer) const {
  writer.WriteDirective("dimensions", std::to_string(rows_) + "," + std::to_string(cols_));
  writer.WriteNewline();
  for (int c = 0; c < cols_; ++c) {
    if (col_widths_[static_cast<size_t>(c)] != kDefaultColWidth) {
      writer.WriteDirective("colwidth", std::to_string(c) + "," +
                                            std::to_string(col_widths_[static_cast<size_t>(c)]));
      writer.WriteNewline();
    }
  }
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      const Cell& cell = at(r, c);
      std::string rc = std::to_string(r) + "," + std::to_string(c);
      switch (cell.kind) {
        case CellKind::kEmpty:
          break;
        case CellKind::kText:
          writer.WriteDirective("cell", rc + ",text");
          writer.WriteText(cell.text);
          writer.WriteNewline();
          break;
        case CellKind::kNumber: {
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%.17g", cell.value);
          writer.WriteDirective("cell", rc + ",number");
          writer.WriteText(buf);
          writer.WriteNewline();
          break;
        }
        case CellKind::kFormula:
          writer.WriteDirective("cell", rc + ",formula");
          writer.WriteText(cell.text);
          writer.WriteNewline();
          break;
        case CellKind::kObject: {
          writer.WriteDirective("cellobject", rc);
          writer.WriteNewline();
          int64_t id = cell.object->Write(writer);
          writer.WriteViewReference(cell.view_type, id);
          writer.WriteNewline();
          break;
        }
      }
    }
  }
}

bool TableData::ReadBody(DataStreamReader& reader, ReadContext& context) {
  using Kind = DataStreamReader::Token::Kind;
  in_bulk_load_ = true;
  rows_ = 1;
  cols_ = 1;
  cells_.clear();
  cells_.resize(1);
  col_widths_.assign(1, kDefaultColWidth);
  int pending_obj_row = -1;
  int pending_obj_col = -1;
  // Cell content is the text that follows a \cell directive, up to newline.
  int content_row = -1;
  int content_col = -1;
  CellKind content_kind = CellKind::kEmpty;
  std::string content;
  std::vector<std::pair<int64_t, std::unique_ptr<DataObject>>> pending_children;

  auto commit_content = [&](std::string_view text) {
    if (content_row < 0) {
      return;
    }
    if (content_kind == CellKind::kText) {
      SetText(content_row, content_col, text);
    } else if (content_kind == CellKind::kNumber) {
      SetNumber(content_row, content_col, ParseNumber(text));
    } else if (content_kind == CellKind::kFormula) {
      SetFormula(content_row, content_col, text);
    }
    content_row = -1;
    content.clear();
  };

  bool ok = true;
  while (true) {
    DataStreamReader::Token token = reader.Next();
    if (token.kind == Kind::kEof) {
      ok = false;
      break;
    }
    if (token.kind == Kind::kEndData) {
      break;
    }
    switch (token.kind) {
      case Kind::kText: {
        if (content_row >= 0) {
          size_t nl = token.text.find('\n');
          std::string_view line = token.text.substr(0, nl);
          if (nl == std::string_view::npos) {
            content += line;
          } else if (content.empty()) {
            commit_content(line);  // The whole line is in this token.
          } else {
            content += line;
            commit_content(content);
          }
        }
        break;
      }
      case Kind::kDirective: {
        commit_content(content);
        DirectiveArgs args(token.text);
        int r = 0;
        int c = 0;
        if (token.type == "dimensions") {
          if (args.Int(r) && args.Int(c)) {
            if (int64_t{std::max(r, 1)} * std::max(c, 1) > kMaxCells) {
              context.AddDiagnostic(Diagnostic{
                  StatusCode::kCorrupt, token.offset,
                  "table dimensions " + std::string(token.text) + " exceed the cell cap"});
            } else {
              Resize(r, c);
            }
          }
        } else if (token.type == "colwidth") {
          int w = 0;
          if (args.Int(c) && args.Int(w)) {
            SetColWidth(c, w);
          }
        } else if (token.type == "cell") {
          std::string_view kind;
          if (args.Int(r) && args.Int(c) && args.Word(kind) && InBounds(r, c)) {
            content_row = r;
            content_col = c;
            content_kind = kind == "text"      ? CellKind::kText
                           : kind == "number"  ? CellKind::kNumber
                           : kind == "formula" ? CellKind::kFormula
                                               : CellKind::kEmpty;
            content.clear();
          }
        } else if (token.type == "cellobject") {
          if (args.Int(r) && args.Int(c) && InBounds(r, c)) {
            pending_obj_row = r;
            pending_obj_col = c;
          }
        }
        break;
      }
      case Kind::kBeginData: {
        commit_content(content);
        std::unique_ptr<DataObject> child =
            ReadObjectBody(reader, context, std::string(token.type), token.id);
        if (child != nullptr) {
          pending_children.emplace_back(token.id, std::move(child));
        }
        break;
      }
      case Kind::kViewRef: {
        auto it = std::find_if(pending_children.begin(), pending_children.end(),
                               [&](const auto& pair) { return pair.first == token.id; });
        if (it != pending_children.end() && pending_obj_row >= 0) {
          SetObject(pending_obj_row, pending_obj_col, std::move(it->second), token.type);
          pending_children.erase(it);
          pending_obj_row = -1;
        } else {
          context.AddError("table \\view reference with no pending cellobject");
        }
        break;
      }
      default:
        break;
    }
  }
  commit_content(content);
  in_bulk_load_ = false;
  Recalculate();
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
  return ok;
}

}  // namespace atk
