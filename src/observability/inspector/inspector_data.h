// InspectorData — the data-object half of the self-hosted inspector.
//
// The inspector is built out of the toolkit it inspects: one data object
// snapshots the observability spine (MetricsRegistry + Tracer) and the host
// window's live view tree on a configurable cadence, and notifies its
// observers through the ordinary Observable channel.  Three views render it
// (src/observability/inspector/inspector_views.h); none of them read the
// tracer directly, so every panel sees one consistent snapshot.
//
// Besides the raw snapshot, the refresh derives:
//   * view-tree rows — class, bounds, damage fingerprint and clip-memo hit
//     rate per host view, flattened into plain strings so painting never
//     touches host views that may since have been destroyed;
//   * frame profiles — per-view time attribution for each im.update.cycle
//     span, computed from the nested update.<class> spans (AttributeFrames);
//   * the slow-frame flight recorder — when a cycle exceeds the frame
//     budget, the span ring is frozen as a `\begindata{trace}` document
//     (inspector.flight.captured counts each capture);
//   * the metrics panel sources — a TableData of counter values and
//     histogram percentiles plus a ChartData over the counter rows, so the
//     §2 table -> chart observer chain displays the toolkit's own metrics;
//   * the server panel sources — one row per connected session, derived
//     purely from the `server.endpoint_<id>.*` gauges the document server
//     publishes (RTT estimate, retransmits, send-queue depth, epoch), plus
//     a ChartData over the RTT column; a second flight-recorder trigger
//     freezes the ring whenever a session is evicted or resyncs
//     (server.sessions.evicted / client.session.reconnects advance);
//   * the memory panel sources — the MemoryAccountant's per-pool accounts
//     (current/peak bytes) and the live DataObject census, as a TableData
//     plus a ChartData over the account byte column.

#ifndef ATK_SRC_OBSERVABILITY_INSPECTOR_INSPECTOR_DATA_H_
#define ATK_SRC_OBSERVABILITY_INSPECTOR_INSPECTOR_DATA_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/data_object.h"
#include "src/components/table/chart.h"
#include "src/components/table/table_data.h"
#include "src/graphics/geometry.h"
#include "src/observability/observability.h"

namespace atk {

class InteractionManager;
class View;

class InspectorData : public DataObject {
  ATK_DECLARE_CLASS(InspectorData)

 public:
  // 10 Hz: fast enough to feel live, slow enough that the inspector's own
  // repaint traffic stays negligible next to the host's.
  static constexpr uint64_t kDefaultRefreshPeriodNs = 100'000'000;
  // Two 60 Hz frames — a cycle slower than this is worth a flight record.
  static constexpr uint64_t kDefaultFrameBudgetNs = 33'000'000;
  // Bounded frame history (the profiler shows recent cycles, not all time).
  static constexpr size_t kMaxFrames = 32;

  InspectorData();
  ~InspectorData() override;

  // ---- Host attachment -------------------------------------------------------
  // Not owned; the host closes the inspector (and with it this object)
  // before the host window dies, so the pointer cannot dangle.
  void AttachHost(InteractionManager* host) { host_ = host; }
  InteractionManager* host() const { return host_; }

  // ---- Cadence ---------------------------------------------------------------
  void SetRefreshPeriodNs(uint64_t period_ns) { refresh_period_ns_ = period_ns; }
  uint64_t refresh_period_ns() const { return refresh_period_ns_; }
  // Refreshes when at least one period has elapsed since the last refresh.
  // Called by the host's per-cycle tick; returns true when it refreshed.
  bool MaybeRefresh(uint64_t now_ns);
  // Unconditional refresh: snapshot, derive, notify observers once.
  void Refresh();
  uint64_t refresh_count() const { return refresh_count_; }

  // ---- View-tree browser rows ------------------------------------------------
  struct TreeRow {
    int depth = 0;              // Indentation level; 0 = the host IM itself.
    std::string class_name;
    Rect device_bounds;
    uint64_t damage_fp = 0;     // Fingerprint of the last damage that hit it.
    uint64_t clip_hits = 0;
    uint64_t clip_misses = 0;
    bool has_focus = false;
  };
  const std::vector<TreeRow>& tree_rows() const { return tree_rows_; }

  // ---- Frame profiler --------------------------------------------------------
  struct FrameSlice {
    std::string name;           // "update.<class>"
    uint64_t duration_ns = 0;
  };
  struct FrameProfile {
    uint64_t cycle_seq = 0;     // Completion seq of the im.update.cycle span.
    uint64_t start_ns = 0;
    uint64_t duration_ns = 0;
    bool over_budget = false;
    std::vector<FrameSlice> slices;  // Longest first.
  };
  // Pure derivation (unit-testable without a window): for every
  // im.update.cycle span, attributes the update.<class> spans that nest
  // inside it (same thread, contained interval), longest slice first.
  // Frames come back oldest first.
  static std::vector<FrameProfile> AttributeFrames(
      const std::vector<observability::SpanRecord>& spans, uint64_t budget_ns);
  const std::vector<FrameProfile>& frames() const { return frames_; }

  void SetFrameBudgetNs(uint64_t budget_ns) { frame_budget_ns_ = budget_ns; }
  uint64_t frame_budget_ns() const { return frame_budget_ns_; }

  // ---- Flight recorder -------------------------------------------------------
  // When a refresh finds a cycle over budget that it has not seen before, the
  // whole span ring is frozen as a standalone `\begindata{trace}` document.
  bool has_flight_record() const { return !flight_record_.empty(); }
  const std::string& flight_record() const { return flight_record_; }
  const observability::TraceSnapshot& flight_snapshot() const { return flight_snapshot_; }
  uint64_t flight_captures() const { return flight_captures_; }

  // ---- Snapshot & export -----------------------------------------------------
  const observability::TraceSnapshot& snapshot() const { return snapshot_; }
  // The live snapshot / the frozen flight record as Perfetto-loadable JSON.
  std::string ExportPerfettoJson() const;
  std::string ExportFlightPerfettoJson() const;

  // ---- Metrics panel sources -------------------------------------------------
  // Counter rows first (name, value), then one row per histogram percentile
  // (name.p50/.p95/.p99).  The chart plots the counter rows only.
  TableData* metrics_table() { return metrics_table_.get(); }
  ChartData* metrics_chart() { return metrics_chart_.get(); }
  int counter_row_count() const { return counter_row_count_; }

  // ---- Server panel sources --------------------------------------------------
  // One row per document-server endpoint, parsed out of the
  // server.endpoint_<id>.{rtt_ticks,retransmits,queue_depth,epoch} gauges:
  // columns are session id, RTT estimate (link ticks), send-queue depth,
  // retransmit count and resync epoch.  The chart plots the RTT column, so
  // a congested session stands out at a glance.
  TableData* sessions_table() { return sessions_table_.get(); }
  ChartData* sessions_chart() { return sessions_chart_.get(); }
  int session_row_count() const { return session_row_count_; }

  // ---- Memory panel sources --------------------------------------------------
  // The heap census: one row per MemoryAccount (name, current bytes, peak
  // bytes) followed by the top live DataObject classes from the census
  // (name, bytes, count).  The chart plots current bytes over the account
  // rows only, so the biggest pool stands out.  Totals for the header are
  // kept alongside.
  TableData* memory_table() { return memory_table_.get(); }
  ChartData* memory_chart() { return memory_chart_.get(); }
  int memory_row_count() const { return memory_row_count_; }
  int64_t memory_total_bytes() const { return memory_total_bytes_; }
  int64_t memory_peak_bytes() const { return memory_peak_bytes_; }

  // ---- Datastream ------------------------------------------------------------
  // Persists the configuration (cadence, budget), not the live capture — a
  // reopened inspector re-snapshots the live process.
  void WriteBody(DataStreamWriter& writer) const override;
  bool ReadBody(DataStreamReader& reader, ReadContext& context) override;

 private:
  void RebuildTreeRows();
  void RebuildMetricsTable();
  void RebuildSessionsTable();
  void RebuildMemoryTable();
  void CaptureFlightRecords();
  void CaptureServerFlightRecords();

  InteractionManager* host_ = nullptr;
  uint64_t refresh_period_ns_ = kDefaultRefreshPeriodNs;
  uint64_t frame_budget_ns_ = kDefaultFrameBudgetNs;
  uint64_t last_refresh_ns_ = 0;
  uint64_t refresh_count_ = 0;

  observability::TraceSnapshot snapshot_;
  std::vector<TreeRow> tree_rows_;
  std::vector<FrameProfile> frames_;

  std::string flight_record_;
  observability::TraceSnapshot flight_snapshot_;
  uint64_t flight_captures_ = 0;
  uint64_t last_flight_seq_ = 0;

  std::unique_ptr<TableData> metrics_table_;
  std::unique_ptr<ChartData> metrics_chart_;
  int counter_row_count_ = 0;

  std::unique_ptr<TableData> sessions_table_;
  std::unique_ptr<ChartData> sessions_chart_;
  int session_row_count_ = 0;

  std::unique_ptr<TableData> memory_table_;
  std::unique_ptr<ChartData> memory_chart_;
  int memory_row_count_ = 0;
  int64_t memory_total_bytes_ = 0;
  int64_t memory_peak_bytes_ = 0;
  // Watermarks for the server flight trigger: the ring is frozen whenever
  // either counter advances past the value seen at the previous capture.
  uint64_t last_evictions_ = 0;
  uint64_t last_resyncs_ = 0;
};

}  // namespace atk

#endif  // ATK_SRC_OBSERVABILITY_INSPECTOR_INSPECTOR_DATA_H_
