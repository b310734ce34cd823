#include "src/observability/inspector/inspector_data.h"

#include <algorithm>
#include <map>
#include <string_view>

#include "src/base/interaction_manager.h"
#include "src/datastream/directive_args.h"
#include "src/observability/memory.h"
#include "src/observability/trace_component.h"
#include "src/observability/trace_export.h"

namespace atk {

ATK_DEFINE_CLASS(InspectorData, DataObject, "inspector")

namespace {

using observability::Counter;
using observability::MetricsRegistry;
using observability::SpanRecord;

}  // namespace

InspectorData::InspectorData() {
  metrics_table_ = std::make_unique<TableData>();
  metrics_chart_ = std::make_unique<ChartData>();
  metrics_chart_->SetTitle("counters");
  metrics_chart_->SetColumns(0, 1);
  metrics_chart_->SetSource(metrics_table_.get());
  sessions_table_ = std::make_unique<TableData>();
  sessions_chart_ = std::make_unique<ChartData>();
  sessions_chart_->SetTitle("rtt (ticks)");
  sessions_chart_->SetColumns(0, 1);
  sessions_chart_->SetSource(sessions_table_.get());
  memory_table_ = std::make_unique<TableData>();
  memory_chart_ = std::make_unique<ChartData>();
  memory_chart_->SetTitle("pool bytes");
  memory_chart_->SetColumns(0, 1);
  memory_chart_->SetSource(memory_table_.get());
}

InspectorData::~InspectorData() = default;

bool InspectorData::MaybeRefresh(uint64_t now_ns) {
  if (refresh_count_ > 0 && now_ns - last_refresh_ns_ < refresh_period_ns_) {
    return false;
  }
  last_refresh_ns_ = now_ns;
  Refresh();
  return true;
}

void InspectorData::Refresh() {
  static Counter& refreshed = MetricsRegistry::Instance().counter("inspector.snapshot.refreshed");
  refreshed.Add(1);
  snapshot_ = observability::Snapshot();
  RebuildTreeRows();
  frames_ = AttributeFrames(snapshot_.spans, frame_budget_ns_);
  if (frames_.size() > kMaxFrames) {
    frames_.erase(frames_.begin(), frames_.end() - static_cast<ptrdiff_t>(kMaxFrames));
  }
  CaptureFlightRecords();
  CaptureServerFlightRecords();
  RebuildMetricsTable();
  RebuildSessionsTable();
  RebuildMemoryTable();
  ++refresh_count_;
  NotifyObservers(Change{Change::Kind::kModified});
}

void InspectorData::RebuildTreeRows() {
  tree_rows_.clear();
  if (host_ == nullptr) {
    return;
  }
  // Rows are flattened into strings here so painting later never follows a
  // host-view pointer (the host may delete views between refreshes).
  auto visit = [this](auto&& self, const View& view, int depth) -> void {
    TreeRow row;
    row.depth = depth;
    row.class_name = view.class_name();
    row.device_bounds = view.DeviceBounds();
    row.damage_fp = view.last_damage_fingerprint();
    row.clip_hits = view.clip_memo_hits();
    row.clip_misses = view.clip_memo_misses();
    row.has_focus = view.has_input_focus();
    tree_rows_.push_back(std::move(row));
    for (const View* child : view.children()) {
      self(self, *child, depth + 1);
    }
  };
  visit(visit, *host_, 0);
}

std::vector<InspectorData::FrameProfile> InspectorData::AttributeFrames(
    const std::vector<SpanRecord>& spans, uint64_t budget_ns) {
  std::vector<FrameProfile> frames;
  for (const SpanRecord& cycle : spans) {
    if (cycle.name_view() != "im.update.cycle") {
      continue;
    }
    FrameProfile frame;
    frame.cycle_seq = cycle.seq;
    frame.start_ns = cycle.start_ns;
    frame.duration_ns = cycle.duration_ns;
    frame.over_budget = budget_ns > 0 && cycle.duration_ns > budget_ns;
    uint64_t cycle_end = cycle.start_ns + cycle.duration_ns;
    for (const SpanRecord& span : spans) {
      // An update.<class> span belongs to this cycle when it nests inside
      // it: same thread, deeper, and its interval contained in the cycle's.
      if (span.thread != cycle.thread || span.depth <= cycle.depth) {
        continue;
      }
      if (span.name_view().substr(0, 7) != "update.") {
        continue;
      }
      if (span.start_ns < cycle.start_ns || span.start_ns + span.duration_ns > cycle_end) {
        continue;
      }
      frame.slices.push_back(FrameSlice{std::string(span.name_view()), span.duration_ns});
    }
    std::stable_sort(frame.slices.begin(), frame.slices.end(),
                     [](const FrameSlice& a, const FrameSlice& b) {
                       return a.duration_ns > b.duration_ns;
                     });
    frames.push_back(std::move(frame));
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const FrameProfile& a, const FrameProfile& b) {
                     return a.cycle_seq < b.cycle_seq;
                   });
  return frames;
}

void InspectorData::CaptureFlightRecords() {
  uint64_t worst_new_seq = 0;
  for (const FrameProfile& frame : frames_) {
    if (frame.over_budget && frame.cycle_seq > last_flight_seq_) {
      worst_new_seq = std::max(worst_new_seq, frame.cycle_seq);
    }
  }
  if (worst_new_seq == 0) {
    return;
  }
  // Freeze the whole ring as a datastream document: the slow cycle is kept
  // with its surrounding context, and the document round-trips like any
  // other component (or loads in Perfetto via ExportFlightPerfettoJson).
  static Counter& captured = MetricsRegistry::Instance().counter("inspector.flight.captured");
  captured.Add(1);
  flight_snapshot_ = snapshot_;
  flight_record_ = observability::SnapshotToDatastream(flight_snapshot_);
  ++flight_captures_;
  last_flight_seq_ = worst_new_seq;
}

void InspectorData::CaptureServerFlightRecords() {
  // Session churn trigger: a session eviction on the server or a resync on
  // any client means propagation state was just rebuilt, and the spans that
  // led up to it are exactly what the ring still holds.  Freeze it before
  // further refreshes age them out.
  uint64_t evictions = 0;
  uint64_t resyncs = 0;
  for (const observability::CounterSample& counter : snapshot_.counters) {
    if (counter.name == "server.sessions.evicted") {
      evictions = counter.value;
    } else if (counter.name == "client.session.reconnects") {
      resyncs = counter.value;
    }
  }
  if (evictions <= last_evictions_ && resyncs <= last_resyncs_) {
    return;
  }
  static Counter& captured = MetricsRegistry::Instance().counter("inspector.flight.captured");
  captured.Add(1);
  flight_snapshot_ = snapshot_;
  flight_record_ = observability::SnapshotToDatastream(flight_snapshot_);
  ++flight_captures_;
  last_evictions_ = evictions;
  last_resyncs_ = resyncs;
}

void InspectorData::RebuildSessionsTable() {
  // Rows derive purely from the published server.endpoint_<id>.* gauges, so
  // the inspector needs no dependency on (or pointer into) the server layer
  // and the table stays meaningful even over a salvaged snapshot.
  struct SessionRow {
    int64_t rtt = 0;
    int64_t queue = 0;
    int64_t retransmits = 0;
    int64_t epoch = 0;
  };
  std::map<uint64_t, SessionRow> sessions;
  constexpr std::string_view kPrefix = "server.endpoint_";
  for (const observability::GaugeSample& gauge : snapshot_.gauges) {
    std::string_view name = gauge.name;
    if (name.substr(0, kPrefix.size()) != kPrefix) {
      continue;
    }
    std::string_view rest = name.substr(kPrefix.size());
    size_t dot = rest.find('.');
    uint64_t id = 0;
    if (dot == std::string_view::npos || !ParseU64(rest.substr(0, dot), &id)) {
      continue;
    }
    std::string_view field = rest.substr(dot + 1);
    SessionRow& row = sessions[id];
    if (field == "rtt_ticks") {
      row.rtt = gauge.value;
    } else if (field == "queue_depth") {
      row.queue = gauge.value;
    } else if (field == "retransmits") {
      row.retransmits = gauge.value;
    } else if (field == "epoch") {
      row.epoch = gauge.value;
    }
  }
  int rows = static_cast<int>(sessions.size());
  if (sessions_table_->rows() != rows || sessions_table_->cols() != 5) {
    sessions_table_->Resize(rows, 5);
  }
  int row = 0;
  for (const auto& [id, session] : sessions) {
    sessions_table_->SetText(row, 0, "session " + std::to_string(id));
    sessions_table_->SetNumber(row, 1, static_cast<double>(session.rtt));
    sessions_table_->SetNumber(row, 2, static_cast<double>(session.queue));
    sessions_table_->SetNumber(row, 3, static_cast<double>(session.retransmits));
    sessions_table_->SetNumber(row, 4, static_cast<double>(session.epoch));
    ++row;
  }
  session_row_count_ = row;
  sessions_chart_->SetRowRange(0, session_row_count_ > 0 ? session_row_count_ - 1 : 0);
}

void InspectorData::RebuildMemoryTable() {
  // The accountant is the authority here (not the gauge snapshot): it folds
  // in the live DataObject census, which the flat gauge list cannot express.
  observability::MemorySnapshot mem =
      observability::MemoryAccountant::Instance().SnapshotMemory();
  memory_total_bytes_ = mem.total_bytes;
  memory_peak_bytes_ = mem.peak_bytes;
  int rows = static_cast<int>(mem.accounts.size() + mem.census.size());
  if (memory_table_->rows() != rows || memory_table_->cols() != 3) {
    memory_table_->Resize(rows, 3);
  }
  int row = 0;
  for (const observability::MemoryAccountSample& account : mem.accounts) {
    memory_table_->SetText(row, 0, account.name);
    memory_table_->SetNumber(row, 1, static_cast<double>(account.current_bytes));
    memory_table_->SetNumber(row, 2, static_cast<double>(account.peak_bytes));
    ++row;
  }
  memory_row_count_ = row;
  for (const observability::CensusRow& census : mem.census) {
    memory_table_->SetText(row, 0, "live " + census.name);
    memory_table_->SetNumber(row, 1, static_cast<double>(census.bytes));
    memory_table_->SetNumber(row, 2, static_cast<double>(census.count));
    ++row;
  }
  // The chart plots the account rows only: census bytes overlap the pool
  // bytes above them, and mixing the two would double-draw the same memory.
  memory_chart_->SetRowRange(0, memory_row_count_ > 0 ? memory_row_count_ - 1 : 0);
}

std::string InspectorData::ExportPerfettoJson() const {
  return observability::TraceExport::ToPerfettoJson(snapshot_);
}

std::string InspectorData::ExportFlightPerfettoJson() const {
  return observability::TraceExport::ToPerfettoJson(flight_snapshot_);
}

void InspectorData::RebuildMetricsTable() {
  int rows = static_cast<int>(snapshot_.counters.size() + snapshot_.gauges.size() +
                              snapshot_.histograms.size() * 3);
  if (metrics_table_->rows() != rows || metrics_table_->cols() != 2) {
    metrics_table_->Resize(rows, 2);
  }
  int row = 0;
  for (const observability::CounterSample& counter : snapshot_.counters) {
    metrics_table_->SetText(row, 0, counter.name);
    metrics_table_->SetNumber(row, 1, static_cast<double>(counter.value));
    ++row;
  }
  counter_row_count_ = row;
  for (const observability::GaugeSample& gauge : snapshot_.gauges) {
    metrics_table_->SetText(row, 0, gauge.name);
    metrics_table_->SetNumber(row, 1, static_cast<double>(gauge.value));
    ++row;
  }
  for (const observability::HistogramSample& histo : snapshot_.histograms) {
    metrics_table_->SetText(row, 0, histo.name + ".p50");
    metrics_table_->SetNumber(row, 1, static_cast<double>(histo.p50));
    ++row;
    metrics_table_->SetText(row, 0, histo.name + ".p95");
    metrics_table_->SetNumber(row, 1, static_cast<double>(histo.p95));
    ++row;
    metrics_table_->SetText(row, 0, histo.name + ".p99");
    metrics_table_->SetNumber(row, 1, static_cast<double>(histo.p99));
    ++row;
  }
  // The bar chart plots counters only: histograms mix units (ns, bands) and
  // gauges can go negative, which the §2 chart example never needed.
  metrics_chart_->SetRowRange(0, counter_row_count_ > 0 ? counter_row_count_ - 1 : 0);
}

void InspectorData::WriteBody(DataStreamWriter& writer) const {
  writer.WriteDirective("inspector", std::to_string(refresh_period_ns_) + "," +
                                         std::to_string(frame_budget_ns_));
  writer.WriteNewline();
}

bool InspectorData::ReadBody(DataStreamReader& reader, ReadContext& context) {
  while (true) {
    DataStreamReader::Token token = reader.Next();
    switch (token.kind) {
      case DataStreamReader::Token::Kind::kEndData:
        return token.type == "inspector";
      case DataStreamReader::Token::Kind::kEof:
        context.AddError("input ended inside an inspector object");
        return false;
      case DataStreamReader::Token::Kind::kDirective:
        if (token.type == "inspector") {
          size_t comma = token.text.find(',');
          uint64_t period = 0;
          uint64_t budget = 0;
          if (comma != std::string_view::npos &&
              ParseU64(token.text.substr(0, comma), &period) &&
              ParseU64(token.text.substr(comma + 1), &budget)) {
            refresh_period_ns_ = period;
            frame_budget_ns_ = budget;
          } else {
            context.AddError("malformed \\inspector{" + std::string(token.text) + "}");
          }
        }
        break;  // Unknown directives are skipped (forward compatibility).
      case DataStreamReader::Token::Kind::kBeginData:
        if (!reader.SkipObject(token.type, token.id)) {
          context.AddError("input ended inside an object nested in an inspector");
          return false;
        }
        break;
      case DataStreamReader::Token::Kind::kDiagnostic:
        context.AddError("damaged directive inside an inspector object");
        break;
      case DataStreamReader::Token::Kind::kText:
      case DataStreamReader::Token::Kind::kViewRef:
        break;
    }
  }
}

}  // namespace atk
