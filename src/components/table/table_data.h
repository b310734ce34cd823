// TableData — the table/spreadsheet data object.
//
// A grid of cells, each empty, text, a number, a formula, or an embedded
// data object (snapshot 5 embeds text, an equation and an animation inside
// table cells).  Formula cells recalculate through a dependency graph with
// cycle detection; every mutation notifies observers once, with the changed
// cell packed into the Change record.

#ifndef ATK_SRC_COMPONENTS_TABLE_TABLE_DATA_H_
#define ATK_SRC_COMPONENTS_TABLE_TABLE_DATA_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/data_object.h"
#include "src/components/table/formula.h"

namespace atk {

class TableData : public DataObject {
  ATK_DECLARE_CLASS(TableData)

 public:
  enum class CellKind { kEmpty, kText, kNumber, kFormula, kObject };

  struct Cell {
    CellKind kind = CellKind::kEmpty;
    std::string text;            // kText source / kFormula source (sans '=').
    double value = 0.0;          // kNumber / evaluated kFormula.
    FormulaExprPtr expr;         // Parsed kFormula.
    bool error = false;
    std::string error_message;
    std::unique_ptr<DataObject> object;  // kObject payload.
    std::string view_type;
  };

  // The most cells a document may declare.  ReadBody reports a larger
  // \dimensions as a diagnostic and allocates nothing for it.
  static constexpr int64_t kMaxCells = int64_t{1} << 20;

  TableData();
  ~TableData() override;

  // ---- Shape ----
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  void Resize(int rows, int cols);
  void InsertRow(int before);
  void DeleteRow(int row);
  void InsertCol(int before);
  void DeleteCol(int col);

  // Column widths in pixels (views honor these; they persist in the file).
  int ColWidth(int col) const;
  void SetColWidth(int col, int width);

  // ---- Cells ----
  bool InBounds(int row, int col) const {
    return row >= 0 && row < rows_ && col >= 0 && col < cols_;
  }
  const Cell& at(int row, int col) const;
  void ClearCell(int row, int col);
  void SetText(int row, int col, std::string_view text);
  void SetNumber(int row, int col, double value);
  // `source` without the leading '='.  Parse errors leave an error cell.
  void SetFormula(int row, int col, std::string_view source);
  // Parses user input by shape: "=..." formula, numeric → number, else text.
  void SetFromInput(int row, int col, std::string_view input);
  DataObject* SetObject(int row, int col, std::unique_ptr<DataObject> data,
                        std::string_view view_type = "");

  // Numeric value of a cell (0 for non-numeric kinds).
  double Value(int row, int col) const;
  // What a view should display: formatted number, text, or "#ERR".
  std::string DisplayText(int row, int col) const;

  // ---- Recalculation ----
  // Re-evaluates all formulas in dependency order; cells on a reference
  // cycle become errors.  Called automatically by every mutator.
  void Recalculate();
  uint64_t recalc_count() const { return recalc_count_; }
  int last_recalc_evaluations() const { return last_recalc_evaluations_; }

  // ---- Datastream ----
  void WriteBody(DataStreamWriter& writer) const override;
  bool ReadBody(DataStreamReader& reader, ReadContext& context) override;

 private:
  Cell& MutableAt(int row, int col);
  void NotifyCell(int row, int col);
  size_t Index(int row, int col) const {
    return static_cast<size_t>(row) * static_cast<size_t>(cols_) + static_cast<size_t>(col);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<Cell> cells_;
  std::vector<int> col_widths_;
  uint64_t recalc_count_ = 0;
  int last_recalc_evaluations_ = 0;
  bool in_bulk_load_ = false;
};

}  // namespace atk

#endif  // ATK_SRC_COMPONENTS_TABLE_TABLE_DATA_H_
