#include "src/components/table/chart.h"

#include <algorithm>
#include <cmath>

#include "src/datastream/directive_args.h"

namespace atk {

ATK_DEFINE_CLASS(ChartData, DataObject, "chart")
ATK_DEFINE_ABSTRACT_CLASS(ChartViewBase, View, "chartviewbase")
ATK_DEFINE_CLASS(PieChartView, ChartViewBase, "piechartview")
ATK_DEFINE_CLASS(BarChartView, ChartViewBase, "barchartview")

ChartData::ChartData() = default;

ChartData::~ChartData() {
  if (source_ != nullptr) {
    source_->RemoveObserver(this);
  }
}

void ChartData::SetSource(TableData* table) {
  if (source_ == table) {
    return;
  }
  if (source_ != nullptr) {
    source_->RemoveObserver(this);
  }
  source_ = table;
  if (source_ != nullptr) {
    source_->AddObserver(this);
  }
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
}

void ChartData::SetTitle(std::string title) {
  title_ = std::move(title);
  Change change;
  change.kind = Change::Kind::kAttributes;
  NotifyObservers(change);
}

void ChartData::SetColumns(int label_col, int value_col) {
  label_col_ = label_col;
  value_col_ = value_col;
  Change change;
  change.kind = Change::Kind::kAttributes;
  NotifyObservers(change);
}

void ChartData::SetRowRange(int first, int last) {
  first_row_ = first;
  last_row_ = last;
  Change change;
  change.kind = Change::Kind::kAttributes;
  NotifyObservers(change);
}

std::vector<ChartData::Slice> ChartData::Series() const {
  std::vector<Slice> series;
  if (source_ == nullptr) {
    return series;
  }
  int last = last_row_ < 0 ? source_->rows() - 1 : std::min(last_row_, source_->rows() - 1);
  for (int row = std::max(first_row_, 0); row <= last; ++row) {
    const TableData::Cell& value_cell = source_->at(row, value_col_);
    if (value_cell.kind == TableData::CellKind::kEmpty ||
        value_cell.kind == TableData::CellKind::kText ||
        value_cell.kind == TableData::CellKind::kObject || value_cell.error) {
      continue;
    }
    Slice slice;
    slice.value = source_->Value(row, value_col_);
    slice.label = source_->DisplayText(row, label_col_);
    if (slice.label.empty()) {
      slice.label = "row " + std::to_string(row + 1);
    }
    series.push_back(std::move(slice));
  }
  return series;
}

void ChartData::ObservedChanged(Observable* changed, const Change& change) {
  if (changed == source_ && change.kind == Change::Kind::kDestroyed) {
    source_ = nullptr;
    return;
  }
  // Forward down the chain: the table changed, so every chart view must
  // reconsider.  This is the paper's auxiliary-data-object update path.
  Change forwarded;
  forwarded.kind = Change::Kind::kModified;
  NotifyObservers(forwarded);
}

void ChartData::WriteBody(DataStreamWriter& writer) const {
  if (!title_.empty()) {
    writer.WriteDirective("charttitle", title_);
    writer.WriteNewline();
  }
  writer.WriteDirective("chartcols",
                        std::to_string(label_col_) + "," + std::to_string(value_col_));
  writer.WriteNewline();
  writer.WriteDirective("chartrows",
                        std::to_string(first_row_) + "," + std::to_string(last_row_));
  writer.WriteNewline();
  int64_t source_id = writer.FindObjectId(source_);
  // 0 means the table was not written before the chart in this stream; the
  // reference is then unresolvable at read time (documented ordering rule).
  writer.WriteDirective("chartsource", std::to_string(source_id));
  writer.WriteNewline();
}

bool ChartData::ReadBody(DataStreamReader& reader, ReadContext& context) {
  using Kind = DataStreamReader::Token::Kind;
  while (true) {
    DataStreamReader::Token token = reader.Next();
    switch (token.kind) {
      case Kind::kEndData:
        return true;
      case Kind::kEof:
        return false;
      case Kind::kDirective:
        if (token.type == "charttitle") {
          title_ = token.text;
        } else if (token.type == "chartcols") {
          // As with sscanf, fields read before a bad one are kept.
          DirectiveArgs args(token.text);
          args.Int(label_col_) && args.Int(value_col_);
        } else if (token.type == "chartrows") {
          DirectiveArgs args(token.text);
          args.Int(first_row_) && args.Int(last_row_);
        } else if (token.type == "chartsource") {
          int64_t id = 0;
          DirectiveArgs(token.text).Int(id);
          TableData* table = ObjectCast<TableData>(context.Resolve(id));
          if (table != nullptr) {
            SetSource(table);
          } else if (id != 0) {
            context.AddError("chart source id " + std::to_string(id) + " not found");
          }
        }
        break;
      case Kind::kBeginData:
        reader.SkipObject(token.type, token.id);
        break;
      default:
        break;
    }
  }
}

// ---- Views -------------------------------------------------------------------

Size ChartViewBase::DesiredSize(Size available) {
  Size desired{120, 90};
  if (available.width > 0) {
    desired.width = std::min(desired.width, available.width);
  }
  if (available.height > 0) {
    desired.height = std::min(desired.height, available.height);
  }
  return desired;
}

std::vector<ChartData::Slice> ChartViewBase::Series() const {
  if (ChartData* data = chart()) {
    return data->Series();
  }
  std::vector<ChartData::Slice> series;
  TableData* table = ObjectCast<TableData>(data_object());
  if (table == nullptr) {
    return series;
  }
  for (int row = 0; row < table->rows(); ++row) {
    const TableData::Cell& value_cell = table->at(row, 1);
    if (value_cell.kind != TableData::CellKind::kNumber &&
        value_cell.kind != TableData::CellKind::kFormula) {
      continue;
    }
    if (value_cell.error) {
      continue;
    }
    ChartData::Slice slice;
    slice.value = table->Value(row, 1);
    slice.label = table->DisplayText(row, 0);
    series.push_back(std::move(slice));
  }
  return series;
}

void ChartViewBase::DrawTitle(Graphic* g) {
  ChartData* data = chart();
  if (data == nullptr || data->title().empty()) {
    return;
  }
  g->SetFont(FontSpec{"andy", 10, kBold});
  g->SetForeground(kBlack);
  const Font& font = Font::Get(FontSpec{"andy", 10, kBold});
  int tx = (g->width() - font.StringWidth(data->title())) / 2;
  g->DrawString(Point{std::max(1, tx), 1}, data->title());
}

void PieChartView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  DrawTitle(g);
  std::vector<ChartData::Slice> series = Series();
  double total = 0;
  for (const auto& slice : series) {
    if (slice.value > 0) {
      total += slice.value;
    }
  }
  Rect area{0, kTitleHeight, g->width(), g->height() - kTitleHeight};
  if (total <= 0 || area.IsEmpty()) {
    g->SetForeground(kGray);
    g->DrawString(Point{4, area.y + 4}, "(no data)");
    return;
  }
  int radius = std::min(area.width, area.height) / 2 - 2;
  Point center = area.center();
  double angle = -M_PI / 2;  // Start at 12 o'clock.
  int color_index = 0;
  for (const auto& slice : series) {
    if (slice.value <= 0) {
      continue;
    }
    double sweep = 2 * M_PI * slice.value / total;
    // Wedge as a filled polygon: center + arc points.
    std::vector<Point> wedge;
    wedge.push_back(center);
    int steps = std::max(2, static_cast<int>(sweep * radius / 2));
    for (int i = 0; i <= steps; ++i) {
      double a = angle + sweep * i / steps;
      wedge.push_back(Point{center.x + static_cast<int>(std::lround(radius * std::cos(a))),
                            center.y + static_cast<int>(std::lround(radius * std::sin(a)))});
    }
    g->SetForeground(kSeriesColors[color_index % kSeriesColorCount]);
    g->FillPolygon(wedge);
    g->SetForeground(kBlack);
    g->DrawPolygon(wedge);
    angle += sweep;
    ++color_index;
  }
  g->SetForeground(kBlack);
  g->DrawEllipse(Rect{center.x - radius, center.y - radius, 2 * radius, 2 * radius});
}

void BarChartView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  DrawTitle(g);
  std::vector<ChartData::Slice> series = Series();
  Rect area = Rect{2, kTitleHeight, g->width() - 4, g->height() - kTitleHeight - 2};
  if (series.empty() || area.IsEmpty()) {
    g->SetForeground(kGray);
    g->DrawString(Point{4, area.y + 4}, "(no data)");
    return;
  }
  double max_value = 0;
  for (const auto& slice : series) {
    max_value = std::max(max_value, slice.value);
  }
  if (max_value <= 0) {
    max_value = 1;
  }
  int n = static_cast<int>(series.size());
  int bar_width = std::max(2, area.width / n - 2);
  for (int i = 0; i < n; ++i) {
    int h = static_cast<int>(area.height * series[static_cast<size_t>(i)].value / max_value);
    h = std::clamp(h, 0, area.height);
    Rect bar{area.x + i * (bar_width + 2), area.bottom() - h, bar_width, h};
    g->SetForeground(kSeriesColors[i % kSeriesColorCount]);
    g->FillRect(bar);
    g->SetForeground(kBlack);
    g->DrawRect(bar);
  }
  // Baseline.
  g->SetForeground(kBlack);
  g->DrawLine(Point{area.x, area.bottom()}, Point{area.right(), area.bottom()});
}

}  // namespace atk
