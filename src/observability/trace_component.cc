#include "src/observability/trace_component.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "src/datastream/directive_args.h"
#include "src/datastream/record_reader.h"

namespace atk {
namespace observability {

int64_t WriteTraceComponent(DataStreamWriter& writer, const TraceSnapshot& snap) {
  int64_t id = writer.BeginData(kTraceComponentType);
  // Span timestamps are written relative to the earliest span so the lines
  // stay well under the §5 80-column guideline.
  uint64_t base_ns = snap.spans.empty() ? 0 : snap.spans.front().start_ns;
  writer.WriteDirective(
      "tracemeta", Join({"2", snap.trace_enabled ? "1" : "0",
                         std::to_string(snap.spans_recorded),
                         std::to_string(snap.spans_dropped), std::to_string(base_ns)}));
  writer.WriteNewline();
  for (size_t i = 0; i < snap.tracks.size(); ++i) {
    writer.WriteDirective("track", Join({std::to_string(i), snap.tracks[i]}));
    writer.WriteNewline();
  }
  for (const SpanRecord& span : snap.spans) {
    writer.WriteDirective(
        "span", Join({std::to_string(span.seq), std::to_string(span.start_ns - base_ns),
                      std::to_string(span.duration_ns), std::to_string(span.depth),
                      std::to_string(span.thread), std::to_string(span.flow),
                      std::to_string(span.track), std::to_string(span.arg),
                      std::string(span.name_view())}));
    writer.WriteNewline();
  }
  for (const CounterSample& counter : snap.counters) {
    writer.WriteDirective("counter", Join({std::to_string(counter.value), counter.name}));
    writer.WriteNewline();
  }
  for (const GaugeSample& gauge : snap.gauges) {
    writer.WriteDirective("gauge", Join({std::to_string(gauge.value), gauge.name}));
    writer.WriteNewline();
  }
  for (const HistogramSample& histo : snap.histograms) {
    writer.WriteDirective(
        "histo", Join({std::to_string(histo.count), std::to_string(histo.sum),
                       std::to_string(histo.max), std::to_string(histo.p50),
                       std::to_string(histo.p95), std::to_string(histo.p99), histo.name}));
    writer.WriteNewline();
  }
  writer.EndData();
  return id;
}

Status ReadTraceComponent(DataStreamReader& reader, TraceSnapshot* out) {
  *out = TraceSnapshot{};
  uint64_t base_ns = 0;
  auto on_directive = [&](std::string_view name, const std::vector<std::string_view>& fields) {
    if (name == "tracemeta") {
      uint64_t enabled = 0;
      if (fields.size() < 5 || !ParseU64(fields[1], &enabled) ||
          !ParseU64(fields[2], &out->spans_recorded) ||
          !ParseU64(fields[3], &out->spans_dropped) || !ParseU64(fields[4], &base_ns)) {
        return false;
      }
      out->trace_enabled = enabled != 0;
    } else if (name == "span") {
      // 6 fields is the version-1 form (no flow/track/arg); 9 is the
      // current one.  The name is always the last field.
      SpanRecord span{};
      uint64_t start_rel = 0;
      uint64_t depth = 0;
      uint64_t thread = 0;
      uint64_t track = 0;
      if ((fields.size() != 6 && fields.size() != 9) || !ParseU64(fields[0], &span.seq) ||
          !ParseU64(fields[1], &start_rel) || !ParseU64(fields[2], &span.duration_ns) ||
          !ParseU64(fields[3], &depth) || !ParseU64(fields[4], &thread)) {
        return false;
      }
      if (fields.size() == 9 &&
          (!ParseU64(fields[5], &span.flow) || !ParseU64(fields[6], &track) ||
           !ParseU64(fields[7], &span.arg))) {
        return false;
      }
      if (depth > UINT16_MAX || thread > UINT32_MAX || track > UINT32_MAX) {
        return false;
      }
      span.start_ns = base_ns + start_rel;
      span.depth = static_cast<uint16_t>(depth);
      span.thread = static_cast<uint32_t>(thread);
      span.track = static_cast<uint32_t>(track);
      std::string_view span_name = fields.back();
      size_t n = std::min(span_name.size(), SpanRecord::kNameCapacity - 1);
      std::memcpy(span.name, span_name.data(), n);
      span.name[n] = '\0';
      out->spans.push_back(span);
    } else if (name == "track") {
      uint64_t track_id = 0;
      if (fields.size() != 2 || !ParseU64(fields[0], &track_id) || track_id > 0xFFFF) {
        return false;
      }
      if (out->tracks.size() <= track_id) {
        out->tracks.resize(track_id + 1);
      }
      out->tracks[track_id] = std::string(fields[1]);
    } else if (name == "counter") {
      CounterSample counter;
      if (fields.size() != 2 || !ParseU64(fields[0], &counter.value)) {
        return false;
      }
      counter.name = std::string(fields[1]);
      out->counters.push_back(std::move(counter));
    } else if (name == "gauge") {
      GaugeSample gauge;
      if (fields.size() != 2 || !ParseI64(fields[0], &gauge.value)) {
        return false;
      }
      gauge.name = std::string(fields[1]);
      out->gauges.push_back(std::move(gauge));
    } else if (name == "histo") {
      HistogramSample histo;
      if (fields.size() != 7 || !ParseU64(fields[0], &histo.count) ||
          !ParseU64(fields[1], &histo.sum) || !ParseU64(fields[2], &histo.max) ||
          !ParseU64(fields[3], &histo.p50) || !ParseU64(fields[4], &histo.p95) ||
          !ParseU64(fields[5], &histo.p99)) {
        return false;
      }
      histo.name = std::string(fields[6]);
      out->histograms.push_back(std::move(histo));
    }
    // Unknown directives are skipped: a newer writer may add fields.
    return true;
  };
  return ReadRecordBody(reader, kTraceComponentType, on_directive);
}

std::string SnapshotToDatastream(const TraceSnapshot& snapshot) {
  std::ostringstream out;
  DataStreamWriter writer(out);
  WriteTraceComponent(writer, snapshot);
  return out.str();
}

Status SnapshotFromDatastream(std::string_view data, TraceSnapshot* out) {
  return ReadFirstRecord(data, kTraceComponentType, [out](DataStreamReader& reader) {
    return ReadTraceComponent(reader, out);
  });
}

}  // namespace observability
}  // namespace atk
