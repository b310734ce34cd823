// The self-hosted inspector (DESIGN.md §8): live introspection views over
// the observability spine, per-view frame attribution, the slow-frame
// flight recorder, and the host-side wiring (ATK_INSPECT, ESC-i).
//
// The EnvAutoOpensOnFirstRunOnce test only runs when ATK_INSPECT is set in
// the environment — the flag is latched once per process, so it gets its
// own ctest entry (inspector_env_autoopen) with the variable exported, and
// skips in the plain suite run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/standard_modules.h"
#include "src/base/interaction_manager.h"
#include "src/class_system/loader.h"
#include "src/components/table/chart.h"
#include "src/components/table/table_data.h"
#include "src/components/text/text_data.h"
#include "src/components/text/text_view.h"
#include "src/observability/inspector/inspector.h"
#include "src/observability/inspector/inspector_views.h"
#include "src/observability/memory.h"
#include "src/observability/observability.h"
#include "src/observability/trace_component.h"
#include "src/wm/window_system.h"

namespace atk {
namespace {

using observability::MetricsRegistry;
using observability::SpanRecord;
using observability::Tracer;
using observability::TraceSnapshot;

SpanRecord MakeSpan(const char* name, uint64_t start_ns, uint64_t duration_ns, uint64_t seq,
                    uint32_t thread, uint16_t depth) {
  SpanRecord span;
  std::strncpy(span.name, name, SpanRecord::kNameCapacity - 1);
  span.name[SpanRecord::kNameCapacity - 1] = '\0';
  span.start_ns = start_ns;
  span.duration_ns = duration_ns;
  span.seq = seq;
  span.thread = thread;
  span.depth = depth;
  return span;
}

uint64_t CounterValue(std::string_view name) {
  return MetricsRegistry::Instance().counter(name).value();
}

TEST(Inspector, EnvAutoOpensOnFirstRunOnce) {
  const char* env = std::getenv("ATK_INSPECT");
  if (env == nullptr || *env == '\0' || *env == '0') {
    GTEST_SKIP() << "ATK_INSPECT not set; covered by the inspector_env_autoopen ctest entry";
  }
  RegisterStandardModules();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 320, 240, "host");
  View child;
  im->SetChild(&child);
  EXPECT_FALSE(im->inspector_open());
  im->RunOnce();
  EXPECT_TRUE(im->inspector_open()) << "ATK_INSPECT must auto-open the inspector";
  ASSERT_NE(im->inspector(), nullptr);
  EXPECT_TRUE(im->inspector()->is_inspector());
  // The env request fires once per window: closing the inspector sticks.
  im->CloseInspector();
  im->RunOnce();
  EXPECT_FALSE(im->inspector_open());
}

TEST(Inspector, OpenCloseToggleLifecycle) {
  RegisterStandardModules();
  Tracer::Instance().SetEnabled(false);
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 320, 240, "host");
  View child;
  im->SetChild(&child);
  im->RunOnce();

  uint64_t opened_before = CounterValue("inspector.window.opened");
  ASSERT_FALSE(im->inspector_open());
  ASSERT_TRUE(im->OpenInspector());
  EXPECT_TRUE(im->inspector_open());
  EXPECT_TRUE(Loader::Instance().IsLoaded("inspector")) << "factory demand-loads the module";
  EXPECT_EQ(CounterValue("inspector.window.opened"), opened_before + 1);
  // Opening the inspector turns tracing on so its panels have spans to show.
  EXPECT_TRUE(observability::Enabled());

  ASSERT_NE(im->inspector(), nullptr);
  EXPECT_TRUE(im->inspector()->is_inspector());
  InspectorData* data = GetInspectorData(im->inspector());
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->host(), im.get());
  EXPECT_GE(data->refresh_count(), 1u) << "first snapshot happens before the first paint";

  // The view-tree browser flattened the host into rows: the IM at depth 0,
  // its child below it.
  ASSERT_GE(data->tree_rows().size(), 2u);
  EXPECT_EQ(data->tree_rows()[0].depth, 0);
  EXPECT_EQ(data->tree_rows()[1].depth, 1);

  // Idempotent while open; an inspector never inspects itself.
  EXPECT_TRUE(im->OpenInspector());
  EXPECT_FALSE(im->inspector()->OpenInspector());

  // Toggle closes, toggle reopens; closing restores the tracing state.
  EXPECT_FALSE(im->ToggleInspector());
  EXPECT_FALSE(im->inspector_open());
  EXPECT_FALSE(observability::Enabled()) << "closing restores the pre-open tracing state";
  EXPECT_EQ(GetInspectorData(im->inspector()), nullptr);
  EXPECT_TRUE(im->ToggleInspector());
  EXPECT_TRUE(im->inspector_open());
  im->CloseInspector();
  EXPECT_FALSE(im->inspector_open());
  EXPECT_FALSE(observability::Enabled());
}

TEST(Inspector, EscIKeybindingToggles) {
  RegisterStandardModules();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 320, 240, "host");
  View child;
  im->SetChild(&child);
  im->RunOnce();
  ASSERT_FALSE(im->inspector_open());

  // ESC then i, as two raw keystrokes walking the IM's own keymap.
  im->window()->Inject(InputEvent::KeyPress('\033'));
  im->window()->Inject(InputEvent::KeyPress('i'));
  im->RunOnce();
  EXPECT_TRUE(im->inspector_open()) << "ESC-i opens the inspector";

  // Meta-i is the same chord spelled with the modifier.
  im->window()->Inject(InputEvent::KeyPress('i', kMetaMod));
  im->RunOnce();
  EXPECT_FALSE(im->inspector_open()) << "ESC-i again closes it";
}

TEST(Inspector, CadenceHonorsRefreshPeriod) {
  InspectorData data;
  data.SetRefreshPeriodNs(1000);
  EXPECT_EQ(data.refresh_count(), 0u);
  EXPECT_TRUE(data.MaybeRefresh(1'000'000)) << "the first tick always refreshes";
  EXPECT_FALSE(data.MaybeRefresh(1'000'500)) << "half a period elapsed";
  EXPECT_FALSE(data.MaybeRefresh(1'000'999));
  EXPECT_TRUE(data.MaybeRefresh(1'001'000)) << "a full period elapsed";
  EXPECT_EQ(data.refresh_count(), 2u);
}

TEST(Inspector, AttributeFramesPerViewSlices) {
  std::vector<SpanRecord> spans;
  // Cycle 1: 10 us, two view slices, one span on another thread and one
  // outside the interval that must both be excluded.
  spans.push_back(MakeSpan("update.textview", 2000, 4000, 3, 0, 1));
  spans.push_back(MakeSpan("update.barchartview", 6100, 2000, 4, 0, 1));
  spans.push_back(MakeSpan("update.textview", 2000, 4000, 2, 1, 1));     // Other thread.
  spans.push_back(MakeSpan("layout.pass.run", 2500, 100, 1, 0, 1));      // Not an update span.
  spans.push_back(MakeSpan("im.update.cycle", 1000, 10000, 5, 0, 0));
  spans.push_back(MakeSpan("update.scrollview", 20000, 100, 6, 0, 1));   // After the cycle.
  // Cycle 2: fast and empty.
  spans.push_back(MakeSpan("im.update.cycle", 30000, 500, 9, 0, 0));

  std::vector<InspectorData::FrameProfile> frames = InspectorData::AttributeFrames(spans, 5000);
  ASSERT_EQ(frames.size(), 2u);

  const InspectorData::FrameProfile& slow = frames[0];
  EXPECT_EQ(slow.cycle_seq, 5u);
  EXPECT_EQ(slow.duration_ns, 10000u);
  EXPECT_TRUE(slow.over_budget);
  ASSERT_EQ(slow.slices.size(), 2u) << "exactly the two nested update spans";
  EXPECT_EQ(slow.slices[0].name, "update.textview") << "longest slice first";
  EXPECT_EQ(slow.slices[0].duration_ns, 4000u);
  EXPECT_EQ(slow.slices[1].name, "update.barchartview");

  const InspectorData::FrameProfile& fast = frames[1];
  EXPECT_EQ(fast.cycle_seq, 9u);
  EXPECT_FALSE(fast.over_budget);
  EXPECT_TRUE(fast.slices.empty());
}

TEST(Inspector, FlightRecorderFreezesSlowFrames) {
  Tracer& tracer = Tracer::Instance();
  tracer.SetCapacity(256);
  tracer.Clear();
  uint32_t tid = Tracer::ThreadId();
  // An 8 ms cycle with a 3 ms view slice, recorded directly into the ring.
  tracer.Record("update.textview", 2'000'000, 5'000'000, 1, tid);
  tracer.Record("im.update.cycle", 1'000'000, 9'000'000, 0, tid);

  InspectorData data;
  data.SetFrameBudgetNs(5'000'000);
  uint64_t captured_before = CounterValue("inspector.flight.captured");
  data.Refresh();

  ASSERT_EQ(data.frames().size(), 1u);
  EXPECT_TRUE(data.frames()[0].over_budget);
  ASSERT_EQ(data.frames()[0].slices.size(), 1u);
  EXPECT_EQ(data.frames()[0].slices[0].name, "update.textview");

  EXPECT_EQ(data.flight_captures(), 1u);
  EXPECT_TRUE(data.has_flight_record());
  EXPECT_EQ(CounterValue("inspector.flight.captured"), captured_before + 1);

  // The frozen record is a §5 datastream document that round-trips.
  TraceSnapshot back;
  Status status = observability::SnapshotFromDatastream(data.flight_record(), &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  bool has_cycle = false;
  for (const SpanRecord& span : back.spans) {
    has_cycle = has_cycle || span.name_view() == "im.update.cycle";
  }
  EXPECT_TRUE(has_cycle);

  // Re-refreshing without a new slow cycle must not re-capture.
  data.Refresh();
  EXPECT_EQ(data.flight_captures(), 1u);

  // A later slow cycle triggers a fresh capture.
  tracer.Record("im.update.cycle", 20'000'000, 31'000'000, 0, tid);
  data.Refresh();
  EXPECT_EQ(data.flight_captures(), 2u);

  // The Perfetto view of the frozen ring names the slow cycle.
  std::string json = data.ExportFlightPerfettoJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("im.update.cycle"), std::string::npos);

  tracer.SetCapacity(Tracer::kDefaultCapacity);
  tracer.Clear();
}

TEST(Inspector, MetricsPanelTableAndChart) {
  MetricsRegistry::Instance().counter("inspector.demo.sample").Add(7);
  MetricsRegistry::Instance().histogram("inspector.demo.waited").Observe(100);

  InspectorData data;
  data.Refresh();
  TableData* table = data.metrics_table();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->cols(), 2);
  ASSERT_GT(table->rows(), 0);
  ASSERT_GT(data.counter_row_count(), 0);
  ASSERT_LE(data.counter_row_count(), table->rows());

  // Counter rows come first; ours is among them with its value.
  bool found_counter = false;
  for (int r = 0; r < data.counter_row_count(); ++r) {
    if (table->at(r, 0).text == "inspector.demo.sample") {
      found_counter = true;
      EXPECT_GE(table->Value(r, 1), 7.0);
    }
  }
  EXPECT_TRUE(found_counter);

  // Histogram percentile rows ride behind the counters.
  bool found_percentile = false;
  for (int r = data.counter_row_count(); r < table->rows(); ++r) {
    if (table->at(r, 0).text == "inspector.demo.waited.p95") {
      found_percentile = true;
    }
  }
  EXPECT_TRUE(found_percentile);

  // The chart is the §2 observer chain over the same table, clipped to the
  // counter rows.
  ChartData* chart = data.metrics_chart();
  ASSERT_NE(chart, nullptr);
  EXPECT_EQ(chart->source(), table);
  std::vector<ChartData::Slice> series = chart->Series();
  EXPECT_FALSE(series.empty());
  EXPECT_LE(series.size(), static_cast<size_t>(data.counter_row_count()));
}

TEST(Inspector, ServerPanelSessionsTableAndChart) {
  // The sessions table derives purely from the server.endpoint_* gauges —
  // no pointer into the server layer — so feeding the registry the same
  // gauges the document server publishes is a faithful fixture.
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.gauge("server.endpoint_1.rtt_ticks").Set(3);
  registry.gauge("server.endpoint_1.queue_depth").Set(2);
  registry.gauge("server.endpoint_1.retransmits").Set(1);
  registry.gauge("server.endpoint_1.epoch").Set(1);
  registry.gauge("server.endpoint_2.rtt_ticks").Set(9);
  registry.gauge("server.endpoint_2.queue_depth").Set(0);
  registry.gauge("server.endpoint_2.retransmits").Set(4);
  registry.gauge("server.endpoint_2.epoch").Set(2);

  InspectorData data;
  data.Refresh();
  TableData* table = data.sessions_table();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->cols(), 5);
  ASSERT_GE(data.session_row_count(), 2);
  bool found_one = false;
  bool found_two = false;
  for (int r = 0; r < data.session_row_count(); ++r) {
    if (table->at(r, 0).text == "session 1") {
      found_one = true;
      EXPECT_EQ(table->Value(r, 1), 3.0);  // rtt
      EXPECT_EQ(table->Value(r, 2), 2.0);  // queue depth
      EXPECT_EQ(table->Value(r, 3), 1.0);  // retransmits
      EXPECT_EQ(table->Value(r, 4), 1.0);  // epoch
    } else if (table->at(r, 0).text == "session 2") {
      found_two = true;
      EXPECT_EQ(table->Value(r, 1), 9.0);
      EXPECT_EQ(table->Value(r, 3), 4.0);
    }
  }
  EXPECT_TRUE(found_one);
  EXPECT_TRUE(found_two);

  // The RTT chart is the §2 observer chain over the sessions table.
  ChartData* chart = data.sessions_chart();
  ASSERT_NE(chart, nullptr);
  EXPECT_EQ(chart->source(), table);
  EXPECT_FALSE(chart->Series().empty());
}

TEST(Inspector, ServerChurnTriggersFlightCapture) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  InspectorData data;
  data.Refresh();
  uint64_t before = data.flight_captures();

  // An eviction between refreshes freezes the ring as a trace document.
  registry.counter("server.sessions.evicted").Add(1);
  data.Refresh();
  EXPECT_EQ(data.flight_captures(), before + 1);
  EXPECT_TRUE(data.has_flight_record());
  EXPECT_NE(data.flight_record().find("\\begindata{trace"), std::string::npos);

  // Quiet refreshes must not re-capture...
  data.Refresh();
  EXPECT_EQ(data.flight_captures(), before + 1);

  // ...but a client resync is churn again.
  registry.counter("client.session.reconnects").Add(1);
  data.Refresh();
  EXPECT_EQ(data.flight_captures(), before + 2);
}

// A host giving every child an equal horizontal slot.
class RowHost : public View {
 public:
  void Layout() override {
    if (graphic() == nullptr || children().empty()) {
      return;
    }
    Rect b = graphic()->LocalBounds();
    int w = std::max(1, b.width / static_cast<int>(children().size()));
    for (size_t i = 0; i < children().size(); ++i) {
      children()[i]->Allocate(Rect{static_cast<int>(i) * w, 0, w, b.height}, graphic());
    }
  }
};

// Runs the scripted chart workload and records the host display hash after
// every step; with `with_inspector` the inspector rides along, refreshing on
// every host cycle (period 0 — harsher than the 10 Hz default).
void RunChartWorkload(bool with_inspector, std::vector<uint64_t>* hashes) {
  RegisterStandardModules();
  Loader::Instance().Require("table");

  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 360, 240, "host");
  TableData table;
  table.Resize(5, 2);
  for (int r = 0; r < 5; ++r) {
    table.SetText(r, 0, "row" + std::to_string(r));
    table.SetNumber(r, 1, r * 10 + 5);
  }
  ChartData chart;
  chart.SetSource(&table);
  RowHost host;
  PieChartView pie;
  BarChartView bar;
  pie.SetDataObject(&chart);
  bar.SetDataObject(&chart);
  host.AddChild(&pie);
  host.AddChild(&bar);
  im->SetChild(&host);
  im->RunOnce();

  if (with_inspector) {
    ASSERT_TRUE(im->OpenInspector());
    InspectorData* data = GetInspectorData(im->inspector());
    ASSERT_NE(data, nullptr);
    data->SetRefreshPeriodNs(0);
  }

  hashes->push_back(im->window()->Display().Hash());
  for (int step = 0; step < 6; ++step) {
    table.SetNumber(step % 5, 1, step * 13 + 1);
    if (step == 3) {
      table.SetText(1, 0, "edited");
    }
    im->RunOnce();
    hashes->push_back(im->window()->Display().Hash());
  }

  if (with_inspector) {
    im->CloseInspector();
  }
  // Detaching must leave the remaining steps identical too.
  table.SetNumber(0, 1, 321);
  im->RunOnce();
  hashes->push_back(im->window()->Display().Hash());

  pie.SetDataObject(nullptr);
  bar.SetDataObject(nullptr);
}

TEST(Inspector, HostRepaintsByteIdenticalWithInspectorAttached) {
  std::vector<uint64_t> without;
  RunChartWorkload(false, &without);
  std::vector<uint64_t> with;
  RunChartWorkload(true, &with);
  ASSERT_EQ(without.size(), with.size());
  for (size_t step = 0; step < without.size(); ++step) {
    EXPECT_EQ(without[step], with[step])
        << "host display diverged at step " << step << " with the inspector attached";
  }
}

TEST(Inspector, ReconnectStormMergesExposeWithPendingDamage) {
  // Connection-drop storm with the inspector attached: every round edits the
  // document (queueing damage) and then kills the wire *before* the update
  // cycle runs.  The next RunOnce reconnects, and the replayed full-window
  // expose must merge with that pending damage into one repaint — pixels
  // after every stormy cycle must match the hashes of the same document
  // states painted with a healthy connection.
  RegisterStandardModules();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 320, 240, "host");
  TextData data;
  data.SetText("storm line one\nstorm line two\nstorm line three\n");
  TextView view;
  view.SetDataObject(&data);
  im->SetChild(&view);
  im->RunOnce();

  ASSERT_TRUE(im->OpenInspector());
  InspectorData* panels = GetInspectorData(im->inspector());
  ASSERT_NE(panels, nullptr);
  panels->SetRefreshPeriodNs(0);
  im->RunOnce();

  // Reference hashes for both document states over a healthy connection.
  const std::string edit = "edited!\n";
  uint64_t ref_base = im->window()->Display().Hash();
  data.InsertString(0, edit);
  im->RunOnce();
  uint64_t ref_edited = im->window()->Display().Hash();
  data.DeleteRange(0, static_cast<int64_t>(edit.size()));
  im->RunOnce();
  ASSERT_EQ(im->window()->Display().Hash(), ref_base);
  ASSERT_NE(ref_base, ref_edited) << "the edit must actually change pixels";

  int reconnects_before = im->window()->reconnect_count();
  for (int round = 1; round <= 8; ++round) {
    data.InsertString(0, edit);  // Pending damage...
    im->window()->InjectConnectionDrop();  // ...then the wire dies mid-cycle.
    im->RunOnce();
    EXPECT_TRUE(im->window()->connected()) << "round " << round;
    EXPECT_EQ(im->window()->Display().Hash(), ref_edited) << "round " << round;

    data.DeleteRange(0, static_cast<int64_t>(edit.size()));
    im->window()->InjectConnectionDrop();
    im->RunOnce();
    EXPECT_EQ(im->window()->Display().Hash(), ref_base) << "round " << round;
  }
  EXPECT_EQ(im->window()->reconnect_count(), reconnects_before + 16);
  EXPECT_TRUE(im->inspector_open()) << "the inspector must ride out the storm";

  im->CloseInspector();
  im->SetChild(nullptr);
}

TEST(Inspector, MemoryPanelTableChartAndTotals) {
  // The memory panel derives purely from the accountant: accounts first
  // (name, current, peak), census rows behind them
  // ("live <class>": bytes, count), and the chart clipped to the accounts.
  observability::MemoryAccountant& accountant =
      observability::MemoryAccountant::Instance();
  observability::ScopedCharge charge(accountant.account("test.mem.panel"), 8192);

  InspectorData data;
  data.Refresh();
  TableData* table = data.memory_table();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->cols(), 3);
  ASSERT_GT(data.memory_row_count(), 0);
  ASSERT_LE(data.memory_row_count(), table->rows());

  bool found_account = false;
  for (int r = 0; r < data.memory_row_count(); ++r) {
    if (table->at(r, 0).text == "test.mem.panel") {
      found_account = true;
      EXPECT_EQ(table->Value(r, 1), 8192.0);
      EXPECT_GE(table->Value(r, 2), 8192.0);  // peak
    }
  }
  EXPECT_TRUE(found_account);

  // Totals mirror the accountant.
  EXPECT_EQ(data.memory_total_bytes(), accountant.total());
  EXPECT_GE(data.memory_peak_bytes(), data.memory_total_bytes());

  // The chart is the §2 observer chain over the same table, clipped to the
  // account rows (census rows chart in different units and stay out).
  ChartData* chart = data.memory_chart();
  ASSERT_NE(chart, nullptr);
  EXPECT_EQ(chart->source(), table);
  EXPECT_FALSE(chart->Series().empty());
  EXPECT_LE(chart->Series().size(), static_cast<size_t>(data.memory_row_count()));

  // Releasing the charge shows up on the next refresh.
  charge.Resize(0);
  data.Refresh();
  for (int r = 0; r < data.memory_row_count(); ++r) {
    if (data.memory_table()->at(r, 0).text == "test.mem.panel") {
      EXPECT_EQ(data.memory_table()->Value(r, 1), 0.0);
    }
  }
}

TEST(Inspector, MemoryPanelViewLifecycle) {
  // The live panel inside an open inspector window: demand-loaded with the
  // module, bound to the shared InspectorData, children materialized on the
  // first paint, and torn down cleanly with the window.
  RegisterStandardModules();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 360, 280, "host");
  View child;
  im->SetChild(&child);
  im->RunOnce();

  ASSERT_TRUE(im->OpenInspector());
  InspectorData* data = GetInspectorData(im->inspector());
  ASSERT_NE(data, nullptr);
  data->SetRefreshPeriodNs(0);
  im->RunOnce();

  // Find the panel under the inspector window's root view.
  MemoryPanelView* panel = nullptr;
  std::vector<View*> stack = {im->inspector()->child()};
  while (!stack.empty() && panel == nullptr) {
    View* view = stack.back();
    stack.pop_back();
    if (view == nullptr) {
      continue;
    }
    panel = ObjectCast<MemoryPanelView>(view);
    for (View* grandchild : view->children()) {
      stack.push_back(grandchild);
    }
  }
  ASSERT_NE(panel, nullptr) << "inspector window lost its memory panel";
  EXPECT_EQ(panel->inspector(), data);

  // The first paint materialized the table/chart children over the shared
  // InspectorData tables.
  ASSERT_NE(panel->table_view(), nullptr);
  ASSERT_NE(panel->chart_view(), nullptr);
  EXPECT_EQ(panel->table_view()->data_object(), data->memory_table());
  EXPECT_EQ(panel->chart_view()->data_object(), data->memory_chart());

  // A charge landing between host cycles flows through refresh into the
  // panel's table on the next cycle.
  observability::MemoryAccountant& accountant =
      observability::MemoryAccountant::Instance();
  {
    observability::ScopedCharge charge(accountant.account("test.mem.lifecycle"), 4096);
    im->RunOnce();
    bool found = false;
    TableData* table = data->memory_table();
    for (int r = 0; r < data->memory_row_count(); ++r) {
      if (table->at(r, 0).text == "test.mem.lifecycle") {
        found = true;
        EXPECT_EQ(table->Value(r, 1), 4096.0);
      }
    }
    EXPECT_TRUE(found);
  }

  // Close tears the window (and panel) down; the host keeps painting.
  im->CloseInspector();
  im->RunOnce();
  EXPECT_FALSE(im->inspector_open());
  im->SetChild(nullptr);
}

}  // namespace
}  // namespace atk
