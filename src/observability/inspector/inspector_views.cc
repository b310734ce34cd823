#include "src/observability/inspector/inspector_views.h"

#include <algorithm>
#include <cstdio>

namespace atk {

ATK_DEFINE_CLASS(InspectorRootView, View, "inspectorrootview")
ATK_DEFINE_CLASS(ViewTreeView, View, "viewtreeview")
ATK_DEFINE_CLASS(FrameProfileView, View, "frameprofileview")
ATK_DEFINE_CLASS(MetricsPanelView, View, "metricspanelview")
ATK_DEFINE_CLASS(ServerPanelView, View, "serverpanelview")
ATK_DEFINE_CLASS(MemoryPanelView, View, "memorypanelview")

namespace {

const FontSpec& PanelFont() {
  static const FontSpec spec{"andy", 10, kPlain};
  return spec;
}

int LineHeight() { return Font::Get(PanelFont()).height() + 2; }

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  return buf;
}

// "512", "12.3k", "4.5m" — compact enough for the memory panel header.
std::string FormatBytes(int64_t bytes) {
  char buf[32];
  double value = static_cast<double>(bytes);
  if (bytes < 0) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(bytes));
  } else if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(bytes));
  } else if (bytes < 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fk", value / 1024.0);
  } else if (bytes < 1024ll * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fm", value / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fg", value / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

}  // namespace

// ---- InspectorRootView ------------------------------------------------------

void InspectorRootView::Layout() {
  if (!HasGraphic() || children().empty()) {
    return;
  }
  // Tree 25%, profiler 21%, metrics 21%, server panel 16%, memory panel 17%
  // (whatever children exist share the proportions; a lone child takes
  // everything).
  static constexpr int kShares[] = {6, 5, 5, 4, 4};
  static constexpr size_t kLastShare = std::size(kShares) - 1;
  Rect local = graphic()->LocalBounds();
  int n = static_cast<int>(children().size());
  int total_share = 0;
  for (int i = 0; i < n; ++i) {
    total_share += kShares[std::min<size_t>(i, kLastShare)];
  }
  int y = 0;
  for (int i = 0; i < n; ++i) {
    View* child = children()[i];
    int h = i == n - 1 ? local.height - y
                       : local.height * kShares[std::min<size_t>(i, kLastShare)] / total_share;
    child->Allocate(Rect{0, y, local.width, h}, graphic());
    y += h;
  }
}

void InspectorRootView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  // Band separators, drawn under the children's own backgrounds.
  for (View* child : children()) {
    int y = child->bounds().y;
    if (y > 0) {
      g->DrawLine(Point{0, y}, Point{g->width(), y});
    }
  }
}

// ---- ViewTreeView -----------------------------------------------------------

void ViewTreeView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  g->SetFont(PanelFont());
  InspectorData* data = inspector();
  int line = LineHeight();
  int y = 2;
  g->DrawString(Point{4, y}, "view tree (class  bounds  damage-fp  clip-memo)");
  y += line;
  if (data == nullptr) {
    g->DrawString(Point{4, y}, "(no inspector data)");
    return;
  }
  for (const InspectorData::TreeRow& row : data->tree_rows()) {
    if (y + line > g->height()) {
      g->DrawString(Point{4, y}, "...");
      break;
    }
    uint64_t lookups = row.clip_hits + row.clip_misses;
    int hit_pct = lookups == 0 ? 0 : static_cast<int>(row.clip_hits * 100 / lookups);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s%s%s  %d,%d %dx%d  fp=%08x  clip %d%% (%llu/%llu)",
                  row.has_focus ? "*" : " ", std::string(row.depth * 2, ' ').c_str(),
                  row.class_name.c_str(), row.device_bounds.x, row.device_bounds.y,
                  row.device_bounds.width, row.device_bounds.height,
                  static_cast<unsigned>(row.damage_fp & 0xffffffffu), hit_pct,
                  static_cast<unsigned long long>(row.clip_hits),
                  static_cast<unsigned long long>(lookups));
    g->DrawString(Point{4, y}, buf);
    y += line;
  }
}

void ViewTreeView::FillMenus(MenuList& menus) {
  menus.Add("Inspector~Export trace", "inspector-export-trace");
}

// ---- FrameProfileView -------------------------------------------------------

void FrameProfileView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  g->SetFont(PanelFont());
  InspectorData* data = inspector();
  int line = LineHeight();
  int y = 2;
  if (data == nullptr) {
    g->DrawString(Point{4, y}, "(no inspector data)");
    return;
  }
  char header[128];
  std::snprintf(header, sizeof(header), "frames (budget %s, %llu flight capture(s))",
                FormatMs(data->frame_budget_ns()).c_str(),
                static_cast<unsigned long long>(data->flight_captures()));
  g->DrawString(Point{4, y}, header);
  y += line;
  // Newest frames first; the bar spans [0, budget] across half the width, so
  // an over-budget frame visibly runs past the tick mark.
  int bar_x = 4;
  int bar_span = std::max(40, g->width() / 2);
  const std::vector<InspectorData::FrameProfile>& frames = data->frames();
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    if (y + line > g->height()) {
      break;
    }
    const InspectorData::FrameProfile& frame = *it;
    uint64_t budget = data->frame_budget_ns() > 0 ? data->frame_budget_ns() : 1;
    int w = static_cast<int>(
        std::min<uint64_t>(frame.duration_ns * static_cast<uint64_t>(bar_span) / budget,
                           static_cast<uint64_t>(bar_span) * 2));
    Rect bar{bar_x, y + 1, std::max(w, 1), line - 3};
    if (frame.over_budget) {
      g->FillRect(bar);
    } else {
      g->DrawRect(bar);
    }
    g->DrawLine(Point{bar_x + bar_span, y}, Point{bar_x + bar_span, y + line - 2});
    char label[160];
    if (frame.slices.empty()) {
      std::snprintf(label, sizeof(label), "#%llu %s",
                    static_cast<unsigned long long>(frame.cycle_seq),
                    FormatMs(frame.duration_ns).c_str());
    } else {
      std::snprintf(label, sizeof(label), "#%llu %s  %s %s",
                    static_cast<unsigned long long>(frame.cycle_seq),
                    FormatMs(frame.duration_ns).c_str(), frame.slices.front().name.c_str(),
                    FormatMs(frame.slices.front().duration_ns).c_str());
    }
    g->DrawString(Point{bar_x + bar_span * 2 + 8, y}, label);
    y += line;
  }
}

// ---- MetricsPanelView -------------------------------------------------------

MetricsPanelView::MetricsPanelView() = default;
MetricsPanelView::~MetricsPanelView() = default;

void MetricsPanelView::EnsureChildren() {
  if (table_view_ == nullptr) {
    table_view_ = std::make_unique<TableView>();
    chart_view_ = std::make_unique<BarChartView>();
    AddChild(table_view_.get());
    AddChild(chart_view_.get());
  }
  InspectorData* data = inspector();
  if (data != nullptr) {
    table_view_->SetDataObject(data->metrics_table());
    chart_view_->SetDataObject(data->metrics_chart());
  }
}

void MetricsPanelView::Layout() {
  if (!HasGraphic()) {
    return;
  }
  EnsureChildren();
  Rect local = graphic()->LocalBounds();
  int table_w = local.width * 3 / 5;
  table_view_->Allocate(Rect{0, 0, table_w, local.height}, graphic());
  chart_view_->Allocate(Rect{table_w + 1, 0, local.width - table_w - 1, local.height},
                        graphic());
}

void MetricsPanelView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  if (table_view_ != nullptr) {
    g->DrawLine(Point{table_view_->bounds().width, 0},
                Point{table_view_->bounds().width, g->height()});
  }
}

// ---- ServerPanelView --------------------------------------------------------

ServerPanelView::ServerPanelView() = default;
ServerPanelView::~ServerPanelView() = default;

void ServerPanelView::EnsureChildren() {
  if (table_view_ == nullptr) {
    table_view_ = std::make_unique<TableView>();
    chart_view_ = std::make_unique<BarChartView>();
    AddChild(table_view_.get());
    AddChild(chart_view_.get());
  }
  InspectorData* data = inspector();
  if (data != nullptr) {
    table_view_->SetDataObject(data->sessions_table());
    chart_view_->SetDataObject(data->sessions_chart());
  }
}

void ServerPanelView::Layout() {
  if (!HasGraphic()) {
    return;
  }
  EnsureChildren();
  // One header line (session count + flight captures), then the sessions
  // table left of its RTT chart, same split as the metrics panel.
  Rect local = graphic()->LocalBounds();
  int header = LineHeight() + 2;
  int body = std::max(local.height - header, 0);
  int table_w = local.width * 3 / 5;
  table_view_->Allocate(Rect{0, header, table_w, body}, graphic());
  chart_view_->Allocate(Rect{table_w + 1, header, local.width - table_w - 1, body},
                        graphic());
}

void ServerPanelView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  g->SetFont(PanelFont());
  InspectorData* data = inspector();
  if (data == nullptr) {
    g->DrawString(Point{4, 2}, "(no inspector data)");
    return;
  }
  char header[160];
  std::snprintf(header, sizeof(header),
                "server sessions: %d (rtt  queue  rexmit  epoch)  %llu flight capture(s)",
                data->session_row_count(),
                static_cast<unsigned long long>(data->flight_captures()));
  g->DrawString(Point{4, 2}, header);
  if (table_view_ != nullptr) {
    g->DrawLine(Point{table_view_->bounds().width, table_view_->bounds().y},
                Point{table_view_->bounds().width, g->height()});
  }
}

// ---- MemoryPanelView --------------------------------------------------------

MemoryPanelView::MemoryPanelView() = default;
MemoryPanelView::~MemoryPanelView() = default;

void MemoryPanelView::EnsureChildren() {
  if (table_view_ == nullptr) {
    table_view_ = std::make_unique<TableView>();
    chart_view_ = std::make_unique<BarChartView>();
    AddChild(table_view_.get());
    AddChild(chart_view_.get());
  }
  InspectorData* data = inspector();
  if (data != nullptr) {
    table_view_->SetDataObject(data->memory_table());
    chart_view_->SetDataObject(data->memory_chart());
  }
}

void MemoryPanelView::Layout() {
  if (!HasGraphic()) {
    return;
  }
  EnsureChildren();
  // One header line (totals), then the accounts table left of its
  // pool-bytes chart, same split as the other panels.
  Rect local = graphic()->LocalBounds();
  int header = LineHeight() + 2;
  int body = std::max(local.height - header, 0);
  int table_w = local.width * 3 / 5;
  table_view_->Allocate(Rect{0, header, table_w, body}, graphic());
  chart_view_->Allocate(Rect{table_w + 1, header, local.width - table_w - 1, body},
                        graphic());
}

void MemoryPanelView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  g->SetFont(PanelFont());
  InspectorData* data = inspector();
  if (data == nullptr) {
    g->DrawString(Point{4, 2}, "(no inspector data)");
    return;
  }
  char header[160];
  std::snprintf(header, sizeof(header), "memory: %s now, %s peak  (%d pools: cur  peak)",
                FormatBytes(data->memory_total_bytes()).c_str(),
                FormatBytes(data->memory_peak_bytes()).c_str(), data->memory_row_count());
  g->DrawString(Point{4, 2}, header);
  if (table_view_ != nullptr) {
    g->DrawLine(Point{table_view_->bounds().width, table_view_->bounds().y},
                Point{table_view_->bounds().width, g->height()});
  }
}

}  // namespace atk
