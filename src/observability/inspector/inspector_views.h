// The inspector's views — three live panels over one InspectorData.
//
// All three observe the same InspectorData and repaint through the ordinary
// delayed-update channel, so the inspector window exercises exactly the
// machinery it displays:
//
//   * ViewTreeView — the view-tree browser: one line per host view with
//     class, device bounds, last damage fingerprint, and clip-memo hit rate.
//   * FrameProfileView — per-view frame attribution: recent im.update.cycle
//     spans as horizontal bars scaled against the frame budget, each labeled
//     with its dominant update.<class> slice; over-budget frames fill solid.
//   * MetricsPanelView — the metrics table and its bar chart, reusing the
//     stock TableView and BarChartView over InspectorData's table -> chart
//     observer chain (§2's worked example, pointed at the toolkit itself).
//   * ServerPanelView — the document-server sessions table (RTT estimate,
//     send-queue depth, retransmits, resync epoch per endpoint, derived
//     from the server.endpoint_* gauges) beside a bar chart of the RTT
//     column, with the flight-capture count in the header so an eviction
//     or resync capture is visible the moment it fires.
//   * MemoryPanelView — the heap census: per-pool accounts (current/peak
//     bytes) and the live DataObject classes beside a bar chart of pool
//     bytes, with the process total/peak in the header.
//
// InspectorRootView stacks the five into the inspector window.

#ifndef ATK_SRC_OBSERVABILITY_INSPECTOR_INSPECTOR_VIEWS_H_
#define ATK_SRC_OBSERVABILITY_INSPECTOR_INSPECTOR_VIEWS_H_

#include <memory>

#include "src/base/view.h"
#include "src/components/table/chart.h"
#include "src/components/table/table_view.h"
#include "src/observability/inspector/inspector_data.h"

namespace atk {

// Vertical stack: view tree on top, then the frame profiler, the metrics
// panel, and the server panel.  Children are laid out in link order.
class InspectorRootView : public View {
  ATK_DECLARE_CLASS(InspectorRootView)

 public:
  void Layout() override;
  void FullUpdate() override;
};

class ViewTreeView : public View {
  ATK_DECLARE_CLASS(ViewTreeView)

 public:
  InspectorData* inspector() const { return ObjectCast<InspectorData>(data_object()); }

  void FullUpdate() override;
  void FillMenus(MenuList& menus) override;
};

class FrameProfileView : public View {
  ATK_DECLARE_CLASS(FrameProfileView)

 public:
  InspectorData* inspector() const { return ObjectCast<InspectorData>(data_object()); }

  void FullUpdate() override;
};

class MetricsPanelView : public View {
  ATK_DECLARE_CLASS(MetricsPanelView)

 public:
  MetricsPanelView();
  ~MetricsPanelView() override;

  InspectorData* inspector() const { return ObjectCast<InspectorData>(data_object()); }

  void Layout() override;
  void FullUpdate() override;

  TableView* table_view() const { return table_view_.get(); }
  BarChartView* chart_view() const { return chart_view_.get(); }

 private:
  void EnsureChildren();

  std::unique_ptr<TableView> table_view_;
  std::unique_ptr<BarChartView> chart_view_;
};

class ServerPanelView : public View {
  ATK_DECLARE_CLASS(ServerPanelView)

 public:
  ServerPanelView();
  ~ServerPanelView() override;

  InspectorData* inspector() const { return ObjectCast<InspectorData>(data_object()); }

  void Layout() override;
  void FullUpdate() override;

  TableView* table_view() const { return table_view_.get(); }
  BarChartView* chart_view() const { return chart_view_.get(); }

 private:
  void EnsureChildren();

  std::unique_ptr<TableView> table_view_;
  std::unique_ptr<BarChartView> chart_view_;
};

class MemoryPanelView : public View {
  ATK_DECLARE_CLASS(MemoryPanelView)

 public:
  MemoryPanelView();
  ~MemoryPanelView() override;

  InspectorData* inspector() const { return ObjectCast<InspectorData>(data_object()); }

  void Layout() override;
  void FullUpdate() override;

  TableView* table_view() const { return table_view_.get(); }
  BarChartView* chart_view() const { return chart_view_.get(); }

 private:
  void EnsureChildren();

  std::unique_ptr<TableView> table_view_;
  std::unique_ptr<BarChartView> chart_view_;
};

}  // namespace atk

#endif  // ATK_SRC_OBSERVABILITY_INSPECTOR_INSPECTOR_VIEWS_H_
