// Observability: spans, metrics, snapshots, and the `trace` datastream
// component (DESIGN.md §8).
//
// Ordering note: EnvToggle must run first — InitFromEnv reads the
// environment exactly once per process, and later tests construct
// InteractionManagers that call it.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/standard_modules.h"
#include "src/base/interaction_manager.h"
#include "src/class_system/loader.h"
#include "src/components/table/chart.h"
#include "src/datastream/reader.h"
#include "src/observability/memsnapshot_component.h"
#include "src/observability/observability.h"
#include "src/observability/trace_component.h"
#include "src/observability/trace_export.h"
#include "src/robustness/fault_injector.h"
#include "src/robustness/salvage.h"
#include "src/wm/window_system.h"
#include "src/workload/edit_replay.h"
#include "tests/test_json.h"

namespace atk {
namespace {

using observability::Counter;
using observability::Histogram;
using observability::MetricsRegistry;
using observability::ScopedSpan;
using observability::SpanRecord;
using observability::Tracer;
using observability::TraceSnapshot;

uint64_t SpanEnd(const SpanRecord& s) { return s.start_ns + s.duration_ns; }

// The strict JSON parser lives in tests/test_json.h (shared with the
// scenario-suite tests, which validate every bench's metric lines with it).
using testjson::JsonValue;
using testjson::ParseJson;

// Structural validation of a multi-track export: every slice's pid is backed
// by a process_name metadata event and its (pid, tid) by a thread_name one,
// and flow events pair up — per flow id exactly one "s" start and one "f"
// finish (bound to the enclosing slice, bp:"e"), "t" steps in between, with
// non-decreasing timestamps.  Returns the number of distinct flow ids so
// callers can assert how many arrows the viewer will draw.
size_t ValidateMultiTrackExport(const JsonValue& root) {
  const JsonValue* events = root.Get("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    ADD_FAILURE() << "traceEvents missing or not an array";
    return 0;
  }
  std::map<double, std::string> process_names;          // pid -> name
  std::map<std::pair<double, double>, bool> thread_names;  // (pid, tid)
  struct FlowPoint {
    std::string phase;
    double ts = 0.0;
    bool bound_to_enclosing = false;
  };
  std::map<double, std::vector<FlowPoint>> flows;  // flow id -> points in order
  for (const JsonValue& event : events->items) {
    const JsonValue* ph = event.Get("ph");
    const JsonValue* name = event.Get("name");
    if (ph == nullptr || name == nullptr) {
      ADD_FAILURE() << "event without ph/name";
      return 0;
    }
    if (ph->str == "M") {
      const JsonValue* pid = event.Get("pid");
      const JsonValue* args = event.Get("args");
      if (pid == nullptr || args == nullptr || args->Get("name") == nullptr) {
        ADD_FAILURE() << "metadata event without pid/args.name";
        continue;
      }
      if (name->str == "process_name") {
        process_names[pid->number] = args->Get("name")->str;
      } else if (name->str == "thread_name") {
        const JsonValue* tid = event.Get("tid");
        if (tid == nullptr) {
          ADD_FAILURE() << "thread_name without tid";
          continue;
        }
        thread_names[{pid->number, tid->number}] = true;
      }
    }
  }
  size_t slices = 0;
  for (const JsonValue& event : events->items) {
    const JsonValue* ph = event.Get("ph");
    if (ph->str == "X") {
      ++slices;
      const JsonValue* pid = event.Get("pid");
      const JsonValue* tid = event.Get("tid");
      if (pid == nullptr || tid == nullptr) {
        ADD_FAILURE() << "slice without pid/tid";
        continue;
      }
      EXPECT_GE(pid->number, 1.0) << "pids are 1-based (track id + 1)";
      EXPECT_TRUE(process_names.count(pid->number))
          << "slice pid " << pid->number << " has no process_name metadata";
      EXPECT_TRUE(thread_names.count({pid->number, tid->number}))
          << "slice (pid,tid) has no thread_name metadata";
    } else if (ph->str == "s" || ph->str == "t" || ph->str == "f") {
      const JsonValue* id = event.Get("id");
      const JsonValue* ts = event.Get("ts");
      const JsonValue* pid = event.Get("pid");
      const JsonValue* tid = event.Get("tid");
      if (id == nullptr || ts == nullptr || pid == nullptr || tid == nullptr) {
        ADD_FAILURE() << "flow event without id/ts/pid/tid";
        continue;
      }
      EXPECT_TRUE(process_names.count(pid->number))
          << "flow point pid " << pid->number << " has no process_name metadata";
      const JsonValue* bp = event.Get("bp");
      flows[id->number].push_back(
          FlowPoint{ph->str, ts->number, bp != nullptr && bp->str == "e"});
    }
  }
  (void)slices;
  for (const auto& [id, points] : flows) {
    if (points.size() < 2) {
      ADD_FAILURE() << "flow " << id << " has fewer than two points";
      continue;
    }
    for (size_t i = 0; i < points.size(); ++i) {
      const char* want = i == 0 ? "s" : (i + 1 == points.size() ? "f" : "t");
      EXPECT_EQ(points[i].phase, want) << "flow " << id << " point " << i;
      if (i > 0) {
        EXPECT_GE(points[i].ts, points[i - 1].ts) << "flow " << id << " point " << i;
      }
    }
    EXPECT_TRUE(points.back().bound_to_enclosing)
        << "flow " << id << " finish must bind to the enclosing slice (bp:\"e\")";
  }
  return flows.size();
}

TEST(Observability, EnvToggleEnablesTracingAndCapacity) {
  ASSERT_FALSE(observability::Enabled()) << "tracing must start disabled";
  setenv("ATK_TRACE", "1", 1);
  setenv("ATK_TRACE_CAPACITY", "8192", 1);
  observability::InitFromEnv();
  EXPECT_TRUE(observability::Enabled());
  EXPECT_EQ(Tracer::Instance().capacity(), 8192u);
  // Disable again so the atexit dump stays quiet and later tests control
  // the tracer themselves.
  Tracer::Instance().SetEnabled(false);
  EXPECT_FALSE(observability::Enabled());
}

TEST(Observability, DisabledTracerFastPath) {
  static_assert(std::is_nothrow_constructible_v<ScopedSpan, std::string_view>,
                "disabled-path ctor must be noexcept");
  static_assert(sizeof(ScopedSpan) <= 64, "ScopedSpan must stay register/cache friendly");
  static_assert(!std::is_copy_constructible_v<ScopedSpan>);
  static_assert(!std::is_copy_assignable_v<ScopedSpan>);

  Tracer& tracer = Tracer::Instance();
  tracer.SetEnabled(false);
  tracer.Clear();
  uint64_t before = tracer.recorded();
  for (int i = 0; i < 1000000; ++i) {
    ScopedSpan span("never.recorded.span");
  }
  EXPECT_EQ(tracer.recorded(), before) << "disabled spans must not record";
  EXPECT_TRUE(tracer.Collect().empty());
}

TEST(Observability, SpanNestingConcurrentThreads) {
  constexpr int kThreads = 4;
  constexpr int kReps = 50;
  Tracer& tracer = Tracer::Instance();
  tracer.SetCapacity(4096);
  tracer.Clear();
  tracer.SetEnabled(true);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kReps; ++i) {
        ScopedSpan outer("nest.level.outer");
        {
          ScopedSpan mid("nest.level.mid");
          { ScopedSpan inner("nest.level.inner"); }
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  tracer.SetEnabled(false);

  std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads * kReps * 3));

  // Collect() is seq-ordered; spans from different threads interleave, but
  // per thread the completion order is strict: inner, mid, outer per rep.
  std::map<uint32_t, std::vector<SpanRecord>> by_thread;
  for (const SpanRecord& span : spans) {
    by_thread[span.thread].push_back(span);
  }
  ASSERT_EQ(by_thread.size(), static_cast<size_t>(kThreads));
  for (const auto& [thread, list] : by_thread) {
    ASSERT_EQ(list.size(), static_cast<size_t>(kReps * 3));
    for (int i = 0; i < kReps; ++i) {
      const SpanRecord& inner = list[static_cast<size_t>(i) * 3];
      const SpanRecord& mid = list[static_cast<size_t>(i) * 3 + 1];
      const SpanRecord& outer = list[static_cast<size_t>(i) * 3 + 2];
      EXPECT_EQ(inner.name_view(), "nest.level.inner");
      EXPECT_EQ(mid.name_view(), "nest.level.mid");
      EXPECT_EQ(outer.name_view(), "nest.level.outer");
      // Children close before parents: strictly increasing seq.
      EXPECT_LT(inner.seq, mid.seq);
      EXPECT_LT(mid.seq, outer.seq);
      // Depth is per-thread nesting at open.
      EXPECT_EQ(outer.depth, 0);
      EXPECT_EQ(mid.depth, 1);
      EXPECT_EQ(inner.depth, 2);
      // Interval containment: inner ⊆ mid ⊆ outer.
      EXPECT_GE(inner.start_ns, mid.start_ns);
      EXPECT_LE(SpanEnd(inner), SpanEnd(mid));
      EXPECT_GE(mid.start_ns, outer.start_ns);
      EXPECT_LE(SpanEnd(mid), SpanEnd(outer));
    }
  }
}

TEST(Observability, RingBufferDropsOldestKeepsAccounting) {
  Tracer& tracer = Tracer::Instance();
  tracer.SetCapacity(8);
  tracer.Clear();
  tracer.SetEnabled(true);
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span("ring.span.close");
  }
  tracer.SetEnabled(false);
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 8u);
  // The retained spans are the newest, oldest-first.
  EXPECT_EQ(spans.front().seq, 13u);
  EXPECT_EQ(spans.back().seq, 20u);
  tracer.SetCapacity(Tracer::kDefaultCapacity);
}

TEST(Observability, HistogramPercentileMatchesBruteForce) {
  Histogram hist;
  // Deterministic LCG covering several orders of magnitude.
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  std::vector<uint64_t> values;
  uint64_t expect_sum = 0;
  uint64_t expect_max = 0;
  for (int i = 0; i < 1000; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t v = (seed >> 33) % 1000000;
    values.push_back(v);
    expect_sum += v;
    expect_max = std::max(expect_max, v);
    hist.Observe(v);
  }
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_EQ(hist.sum(), expect_sum);
  EXPECT_EQ(hist.max(), expect_max);

  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.10, 0.50, 0.90, 0.95, 0.99, 1.00}) {
    uint64_t rank = std::max<uint64_t>(1, static_cast<uint64_t>(p * sorted.size()));
    uint64_t brute = sorted[rank - 1];
    uint64_t approx = hist.Percentile(p);
    // Power-of-two buckets: the true value v satisfies v <= approx < 2v.
    EXPECT_GE(approx, brute) << "p=" << p;
    EXPECT_LT(approx, 2 * brute + 2) << "p=" << p;
  }
  EXPECT_EQ(hist.Percentile(1.0), hist.max());

  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.Percentile(0.5), 0u);
}

TEST(Observability, HistogramBucketBounds) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  for (uint64_t v : {1ull, 7ull, 1000ull, 123456789ull}) {
    uint64_t upper = Histogram::BucketUpperBound(Histogram::BucketIndex(v));
    EXPECT_GE(upper, v);
    EXPECT_LT(upper, 2 * v);
  }
}

TEST(Observability, TraceComponentRoundTrip) {
  Tracer& tracer = Tracer::Instance();
  tracer.Clear();
  tracer.SetEnabled(true);
  uint32_t track = tracer.RegisterTrack("session.roundtrip");
  uint64_t flow = observability::NextFlowId();
  {
    ScopedSpan outer("roundtrip.span.outer");
    ScopedSpan inner("roundtrip.span.inner");
  }
  {
    // A span with the full causal annotation: flow id, non-default track,
    // and a free argument — all three must survive the round trip.
    observability::FlowScope flow_scope(flow);
    observability::TrackScope track_scope(track);
    ScopedSpan tagged("roundtrip.span.tagged");
    tagged.set_arg(7);
  }
  tracer.SetEnabled(false);
  MetricsRegistry::Instance().counter("roundtrip.counter.test").Add(42);
  MetricsRegistry::Instance().gauge("roundtrip.gauge.test").Set(-7);
  Histogram& hist = MetricsRegistry::Instance().histogram("roundtrip.histo.test");
  hist.Reset();
  for (uint64_t v : {1ull, 10ull, 100ull, 1000ull}) {
    hist.Observe(v);
  }

  TraceSnapshot original = observability::Snapshot();
  ASSERT_GE(original.spans.size(), 3u);
  ASSERT_GE(original.tracks.size(), 2u) << "track 0 plus the registered session track";
  std::string serialized = observability::SnapshotToDatastream(original);

  // The serialized trace is an ordinary §5 object: it parses cleanly.
  {
    DataStreamReader reader{serialized};
    for (DataStreamReader::Token token = reader.Next();
         token.kind != DataStreamReader::Token::Kind::kEof; token = reader.Next()) {
    }
    EXPECT_TRUE(reader.diagnostics().empty());
  }

  TraceSnapshot back;
  Status status = observability::SnapshotFromDatastream(serialized, &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(back.trace_enabled, original.trace_enabled);
  EXPECT_EQ(back.spans_recorded, original.spans_recorded);
  EXPECT_EQ(back.spans_dropped, original.spans_dropped);
  ASSERT_EQ(back.spans.size(), original.spans.size());
  for (size_t i = 0; i < original.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].name_view(), original.spans[i].name_view());
    EXPECT_EQ(back.spans[i].start_ns, original.spans[i].start_ns);
    EXPECT_EQ(back.spans[i].duration_ns, original.spans[i].duration_ns);
    EXPECT_EQ(back.spans[i].seq, original.spans[i].seq);
    EXPECT_EQ(back.spans[i].thread, original.spans[i].thread);
    EXPECT_EQ(back.spans[i].depth, original.spans[i].depth);
    EXPECT_EQ(back.spans[i].flow, original.spans[i].flow);
    EXPECT_EQ(back.spans[i].track, original.spans[i].track);
    EXPECT_EQ(back.spans[i].arg, original.spans[i].arg);
  }
  EXPECT_EQ(back.tracks, original.tracks);
  // The tagged span really carried its annotations through.
  bool saw_tagged = false;
  for (const SpanRecord& span : back.spans) {
    if (span.name_view() == "roundtrip.span.tagged") {
      saw_tagged = true;
      EXPECT_EQ(span.flow, flow);
      EXPECT_EQ(span.track, track);
      EXPECT_EQ(span.arg, 7u);
    }
  }
  EXPECT_TRUE(saw_tagged);
  ASSERT_EQ(back.counters.size(), original.counters.size());
  for (size_t i = 0; i < original.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].name, original.counters[i].name);
    EXPECT_EQ(back.counters[i].value, original.counters[i].value);
  }
  ASSERT_EQ(back.gauges.size(), original.gauges.size());
  for (size_t i = 0; i < original.gauges.size(); ++i) {
    EXPECT_EQ(back.gauges[i].name, original.gauges[i].name);
    EXPECT_EQ(back.gauges[i].value, original.gauges[i].value);
  }
  ASSERT_EQ(back.histograms.size(), original.histograms.size());
  for (size_t i = 0; i < original.histograms.size(); ++i) {
    EXPECT_EQ(back.histograms[i].name, original.histograms[i].name);
    EXPECT_EQ(back.histograms[i].count, original.histograms[i].count);
    EXPECT_EQ(back.histograms[i].sum, original.histograms[i].sum);
    EXPECT_EQ(back.histograms[i].max, original.histograms[i].max);
    EXPECT_EQ(back.histograms[i].p50, original.histograms[i].p50);
    EXPECT_EQ(back.histograms[i].p95, original.histograms[i].p95);
    EXPECT_EQ(back.histograms[i].p99, original.histograms[i].p99);
  }

  // And it survives the salvager untouched, like any healthy component.
  SalvageReport report;
  std::string salvaged = DataStreamSalvager().Salvage(serialized, &report);
  EXPECT_EQ(salvaged, serialized);
  EXPECT_TRUE(report.clean);
}

TEST(Observability, TraceNumbersOutOfRangeAreCorrupt) {
  auto read = [](const std::string& line, TraceSnapshot* out) {
    return observability::SnapshotFromDatastream(
        "\\begindata{trace,1}\n" + line + "\n\\enddata{trace,1}\n", out);
  };
  TraceSnapshot snap;
  // These used to read as 7766279631452241919 and +9223372036854775807.
  EXPECT_EQ(read("\\counter{99999999999999999999,a.b.c}", &snap).code(), StatusCode::kCorrupt);
  EXPECT_EQ(read("\\gauge{-9223372036854775809,d.e.f}", &snap).code(), StatusCode::kCorrupt);
  EXPECT_EQ(read("\\gauge{9223372036854775808,d.e.f}", &snap).code(), StatusCode::kCorrupt);
  // A \\span number too wide for its field used to be narrowed silently
  // (depth 70000 read as 4464).
  EXPECT_EQ(read("\\span{1,0,5,70000,0,0,0,0,a.b.c}", &snap).code(), StatusCode::kCorrupt);
  EXPECT_EQ(read("\\span{1,0,5,0,4294967296,0,0,0,a.b.c}", &snap).code(), StatusCode::kCorrupt);
  EXPECT_EQ(read("\\span{1,0,5,0,0,0,4294967296,0,a.b.c}", &snap).code(), StatusCode::kCorrupt);
  EXPECT_TRUE(read("\\span{1,0,5,65535,4294967295,0,4294967295,0,a.b.c}", &snap).ok());

  Status status = read("\\gauge{-9223372036854775808,a.b.c}", &snap);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(snap.gauges[0].name, "a.b.c");
}

// The trace, memsnapshot and editrace readers share one body walk
// (src/datastream/record_reader.h): the same damage gets the same Status
// from each of them.
TEST(RecordReaders, EveryRecordTypeAnswersDamageTheSameWay) {
  struct RecordType {
    std::string type;
    std::function<Status(std::string_view)> read;
    std::string valid_body;   // The least body that reads ok.
    std::string wrong_count;  // A known directive with one field too few.
    std::string non_digit;    // A known directive with a non-digit number.
  };
  const std::vector<RecordType> types = {
      {"trace",
       [](std::string_view data) {
         TraceSnapshot out;
         return observability::SnapshotFromDatastream(data, &out);
       },
       "\\tracemeta{2,1,0,0,0}\n", "\\counter{5}\n", "\\counter{5x,a.b}\n"},
      {"memsnapshot",
       [](std::string_view data) {
         observability::MemorySnapshot out;
         return observability::MemSnapshotFromDatastream(data, &out);
       },
       "\\memmeta{1,0,0,0}\n", "\\census{1,a.b}\n", "\\census{1,2x,a.b}\n"},
      {"editrace",
       [](std::string_view data) {
         EditTrace out;
         return EditTraceFromDatastream(data, &out);
       },
       "\\replaymeta{1,7,1,0}\n\\inittext{}\n", "\\edit{1,0,d,0,1}\n",
       "\\edit{1,0,d,x,1,}\n"},
  };
  const std::string nested = "\\begindata{text,9}\nnested words\n\\enddata{text,9}\n";
  struct DamageCase {
    const char* name;
    std::string before;  // Bytes ahead of the record.
    std::string extra;   // Bytes after the record's valid body.
    bool closed;         // Whether the record's own \enddata follows.
    StatusCode want;
  };
  const std::vector<DamageCase> cases = {
      {"intact", "", "", true, StatusCode::kOk},
      {"found after another object", nested, "", true, StatusCode::kOk},
      {"truncated body", "", "", false, StatusCode::kTruncated},
      {"stray payload text", "", "stray words\n", true, StatusCode::kCorrupt},
      {"blank payload text", "", "  \n\n", true, StatusCode::kOk},
      {"foreign enddata", "", "\\enddata{text,1}\n", false, StatusCode::kCorrupt},
      {"nested object skipped", "", nested, true, StatusCode::kOk},
      {"nested object truncated", "", "\\begindata{text,9}\nx\n", false, StatusCode::kTruncated},
      {"view reference ignored", "", "\\view{textview,9}\n", true, StatusCode::kOk},
      {"unknown directive skipped", "", "\\futurefield{3,x}\n", true, StatusCode::kOk},
  };
  for (const RecordType& type : types) {
    const std::string open = "\\begindata{" + type.type + ",1}\n" + type.valid_body;
    const std::string close = "\\enddata{" + type.type + ",1}\n";
    auto expect = [&](const char* name, const std::string& data, StatusCode want) {
      Status status = type.read(data);
      EXPECT_EQ(status.code(), want)
          << type.type << ": " << name << ": " << status.ToString() << "\n" << data;
    };
    for (const DamageCase& damage : cases) {
      expect(damage.name, damage.before + open + damage.extra + (damage.closed ? close : ""),
             damage.want);
    }
    expect("wrong field count", open + type.wrong_count + close, StatusCode::kCorrupt);
    expect("non-digit field", open + type.non_digit + close, StatusCode::kCorrupt);
    expect("no object", "plain text, no object\n" + nested, StatusCode::kNotFound);
  }
}

TEST(Observability, SalvageReportMetricsEquivalence) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.ResetAll();
  // Truncated stream with a stray backslash: markers get closed and the
  // lone backslash is escaped.
  std::string damaged = "\\begindata{text,1}\nhello \\ world\n\\begindata{text,2}\nnested\n";
  SalvageReport report;
  std::string repaired = DataStreamSalvager().Salvage(damaged, &report);
  EXPECT_FALSE(report.clean);
  ASSERT_FALSE(repaired.empty());

  // The counters were published from the same report fields — they can
  // never disagree with the text rendering.
  EXPECT_EQ(registry.counter("salvage.run.completed").value(), 1u);
  EXPECT_EQ(registry.counter("salvage.subtree.quarantined").value(),
            static_cast<uint64_t>(report.subtrees_quarantined));
  EXPECT_EQ(registry.counter("salvage.marker.closed").value(),
            static_cast<uint64_t>(report.markers_closed));
  EXPECT_EQ(registry.counter("salvage.backslash.escaped").value(),
            static_cast<uint64_t>(report.backslashes_escaped));
  EXPECT_EQ(registry.counter("salvage.quarantine.dropped_bytes").value(), report.bytes_quarantined);
  EXPECT_EQ(registry.counter("salvage.root.synthesized").value(),
            report.root_synthesized ? 1u : 0u);
  EXPECT_EQ(registry.counter("salvage.stream.resynced").value(),
            static_cast<uint64_t>(report.resyncs()));
  EXPECT_EQ(report.resyncs(), report.markers_closed + report.subtrees_quarantined);
}

TEST(Observability, RingOverwriteCountsDroppedMetricAndWarns) {
  observability::Counter& dropped = MetricsRegistry::Instance().counter("obs.trace.dropped");
  dropped.Reset();
  Tracer& tracer = Tracer::Instance();
  tracer.SetCapacity(4);
  tracer.Clear();
  tracer.SetEnabled(true);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("drop.span.demo");
  }
  tracer.SetEnabled(false);
  // 10 spans through a 4-slot ring: 6 overwrites, counted both ways.
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(dropped.value(), 6u) << "counter must match the seq-math accounting";

  TraceSnapshot snap = observability::Snapshot();
  EXPECT_EQ(snap.spans_dropped, 6u);
  std::string text = observability::ToText(snap);
  EXPECT_NE(text.find("WARNING: ring buffer wrapped"), std::string::npos);
  EXPECT_NE(text.find("ATK_TRACE_CAPACITY"), std::string::npos);

  tracer.SetCapacity(Tracer::kDefaultCapacity);
  tracer.Clear();
}

TEST(Observability, PerfettoExportIsValidTraceEventJson) {
  Tracer& tracer = Tracer::Instance();
  tracer.SetCapacity(Tracer::kDefaultCapacity);
  tracer.Clear();
  tracer.SetEnabled(true);
  {
    ScopedSpan outer("perfetto.cycle.demo");
    { ScopedSpan inner("perfetto.view.demo"); }
  }
  tracer.SetEnabled(false);
  MetricsRegistry::Instance().counter("perfetto.counter.demo").Add(11);
  Histogram& hist = MetricsRegistry::Instance().histogram("perfetto.histo.demo");
  hist.Reset();
  hist.Observe(64);

  TraceSnapshot snap = observability::Snapshot();
  ASSERT_GE(snap.spans.size(), 2u);
  std::string json = observability::TraceExport::ToPerfettoJson(snap);

  JsonValue root;
  ASSERT_TRUE(ParseJson(json, &root)) << json.substr(0, 200);
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* unit = root.Get("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");

  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  size_t complete = 0;
  size_t counter_events = 0;
  size_t metadata = 0;
  double min_ts = -1.0;
  bool saw_demo_counter = false;
  for (const JsonValue& event : events->items) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = event.Get("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_EQ(ph->kind, JsonValue::Kind::kString);
    const JsonValue* name = event.Get("name");
    ASSERT_NE(name, nullptr);
    ASSERT_EQ(name->kind, JsonValue::Kind::kString);
    if (ph->str == "X") {
      ++complete;
      // Complete events carry the full trace-event shape Perfetto needs.
      const JsonValue* ts = event.Get("ts");
      const JsonValue* dur = event.Get("dur");
      const JsonValue* pid = event.Get("pid");
      const JsonValue* tid = event.Get("tid");
      const JsonValue* args = event.Get("args");
      ASSERT_NE(ts, nullptr);
      ASSERT_NE(dur, nullptr);
      ASSERT_NE(pid, nullptr);
      ASSERT_NE(tid, nullptr);
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(ts->kind, JsonValue::Kind::kNumber);
      EXPECT_GE(ts->number, 0.0);
      EXPECT_GE(dur->number, 0.0);
      EXPECT_EQ(pid->number, 1.0);
      ASSERT_EQ(args->kind, JsonValue::Kind::kObject);
      EXPECT_NE(args->Get("seq"), nullptr);
      EXPECT_NE(args->Get("depth"), nullptr);
      min_ts = min_ts < 0.0 ? ts->number : std::min(min_ts, ts->number);
    } else if (ph->str == "C") {
      ++counter_events;
      const JsonValue* args = event.Get("args");
      ASSERT_NE(args, nullptr);
      ASSERT_EQ(args->kind, JsonValue::Kind::kObject);
      EXPECT_FALSE(args->members.empty());
      if (name->str == "perfetto.counter.demo") {
        saw_demo_counter = true;
        const JsonValue* value = args->Get("value");
        ASSERT_NE(value, nullptr);
        EXPECT_GE(value->number, 11.0);
      }
      if (name->str == "perfetto.histo.demo") {
        EXPECT_NE(args->Get("p50"), nullptr);
        EXPECT_NE(args->Get("p95"), nullptr);
        EXPECT_NE(args->Get("p99"), nullptr);
      }
    } else if (ph->str == "M") {
      ++metadata;
    } else {
      FAIL() << "unexpected event phase: " << ph->str;
    }
  }
  EXPECT_EQ(complete, snap.spans.size());
  // Byte-valued gauges (the `_bytes` suffix, PR 9's memory accounts) ride
  // along as Perfetto counter tracks; other gauges stay snapshot-only.
  size_t byte_gauges = 0;
  for (const auto& gauge : snap.gauges) {
    if (gauge.name.ends_with("_bytes")) {
      ++byte_gauges;
    }
  }
  EXPECT_EQ(counter_events,
            snap.counters.size() + snap.histograms.size() + byte_gauges);
  EXPECT_GE(metadata, 2u) << "process_name plus at least one thread_name";
  EXPECT_TRUE(saw_demo_counter);
  // Timestamps are rebased so the earliest span starts at zero.
  EXPECT_EQ(min_ts, 0.0);

  const JsonValue* other = root.Get("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* recorded = other->Get("spansRecorded");
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->number, static_cast<double>(snap.spans_recorded));
  EXPECT_NE(other->Get("spansDropped"), nullptr);
}

TEST(Observability, PerfettoMultiTrackFlowExportAndSalvageRoundTrip) {
  Tracer& tracer = Tracer::Instance();
  tracer.SetCapacity(Tracer::kDefaultCapacity);
  tracer.Clear();
  tracer.SetEnabled(true);
  uint32_t server_track = tracer.RegisterTrack("server");
  uint32_t session_track = tracer.RegisterTrack("session.flowdemo");
  uint64_t flow = observability::NextFlowId();
  {
    // One edit's causal path, hand-rolled: origin on the default track,
    // apply on the server track, replica apply on a session track.
    observability::FlowScope flow_scope(flow);
    { ScopedSpan origin("client.edit.submit"); }
    {
      observability::TrackScope track_scope(server_track);
      ScopedSpan apply("server.edit.apply");
    }
    {
      observability::TrackScope track_scope(session_track);
      ScopedSpan replica("client.update.apply");
      replica.set_arg(5);
    }
  }
  { ScopedSpan untagged("perfetto.untagged.demo"); }  // No flow: no arrow.
  tracer.SetEnabled(false);

  TraceSnapshot snap = observability::Snapshot();
  ASSERT_GE(snap.spans.size(), 4u);
  ASSERT_GT(snap.tracks.size(), std::max(server_track, session_track));

  std::string json = observability::TraceExport::ToPerfettoJson(snap);
  JsonValue root;
  ASSERT_TRUE(ParseJson(json, &root)) << json.substr(0, 200);
  EXPECT_EQ(ValidateMultiTrackExport(root), 1u) << "exactly one flow arrow";

  // The three tagged spans landed on three distinct pids, and the flow's
  // start sits on the origin span's track (the default, pid 1).
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<double, int> flow_pids;
  for (const JsonValue& event : events->items) {
    const JsonValue* ph = event.Get("ph");
    if (ph->str == "s" || ph->str == "t" || ph->str == "f") {
      ++flow_pids[event.Get("pid")->number];
      if (ph->str == "s") {
        EXPECT_EQ(event.Get("pid")->number, 1.0) << "flow starts at the origin span";
      }
    }
  }
  EXPECT_EQ(flow_pids.size(), 3u) << "one flow point per track";

  // Satellite: the multi-track snapshot keeps its tracks and flow ids
  // through datastream serialization, the §5 salvager, and re-export.
  std::string serialized = observability::SnapshotToDatastream(snap);
  SalvageReport report;
  std::string salvaged = DataStreamSalvager().Salvage(serialized, &report);
  EXPECT_TRUE(report.clean);
  TraceSnapshot back;
  Status status = observability::SnapshotFromDatastream(salvaged, &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(back.tracks, snap.tracks);
  std::string rejson = observability::TraceExport::ToPerfettoJson(back);
  JsonValue reroot;
  ASSERT_TRUE(ParseJson(rejson, &reroot)) << rejson.substr(0, 200);
  EXPECT_EQ(ValidateMultiTrackExport(reroot), 1u)
      << "flow pairing must survive the salvage round trip";
}

TEST(Observability, PerfettoExportSurvivesFaultInjectedSalvage) {
  Tracer& tracer = Tracer::Instance();
  tracer.SetCapacity(4096);
  tracer.Clear();
  tracer.SetEnabled(true);
  for (int i = 0; i < 40; ++i) {
    ScopedSpan outer("salvage.cycle.demo");
    ScopedSpan inner("salvage.view.demo");
  }
  tracer.SetEnabled(false);
  MetricsRegistry::Instance().counter("salvage.export.demo").Add(5);

  TraceSnapshot original = observability::Snapshot();
  ASSERT_GE(original.spans.size(), 80u);
  std::string healthy = observability::SnapshotToDatastream(original);

  int recovered = 0;
  int with_spans = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    FaultInjector injector(FaultPlan::FromSeed(seed, healthy.size(), 3));
    std::string damaged = injector.Corrupt(healthy);
    SalvageReport report;
    std::string repaired = DataStreamSalvager().Salvage(damaged, &report);

    // Whatever the damage, the salvaged stream must re-read cleanly.
    {
      DataStreamReader reader{repaired};
      for (DataStreamReader::Token token = reader.Next();
           token.kind != DataStreamReader::Token::Kind::kEof; token = reader.Next()) {
      }
      EXPECT_TRUE(reader.diagnostics().empty()) << "seed " << seed;
    }

    // A trace whose body was quarantined may fail to reconstruct — that is
    // graceful degradation, not a crash.  When it does reconstruct, the
    // Perfetto export of the recovered snapshot must still be valid JSON.
    TraceSnapshot back;
    Status status = observability::SnapshotFromDatastream(repaired, &back);
    if (!status.ok()) {
      continue;
    }
    ++recovered;
    if (back.spans.empty()) {
      continue;
    }
    ++with_spans;
    std::string json = observability::TraceExport::ToPerfettoJson(back);
    JsonValue root;
    ASSERT_TRUE(ParseJson(json, &root)) << "seed " << seed;
    const JsonValue* events = root.Get("traceEvents");
    ASSERT_NE(events, nullptr) << "seed " << seed;
    EXPECT_GE(events->items.size(), back.spans.size()) << "seed " << seed;
  }
  EXPECT_GE(recovered, 1) << "no seed produced a reconstructable trace";
  EXPECT_GE(with_spans, 1) << "no seed preserved any span through the damage";

  tracer.SetCapacity(Tracer::kDefaultCapacity);
  tracer.Clear();
}

// A host giving every child a slot (mirrors the bench_update workload).
class GridHost : public View {
 public:
  void Layout() override {
    if (graphic() == nullptr || children().empty()) {
      return;
    }
    Rect b = graphic()->LocalBounds();
    int n = static_cast<int>(children().size());
    int cw = std::max(8, b.width / n);
    for (int i = 0; i < n; ++i) {
      children()[static_cast<size_t>(i)]->Allocate(Rect{i * cw, 0, cw, b.height}, graphic());
    }
  }
};

TEST(Observability, CoalescedUpdatePassTrace) {
  RegisterStandardModules();
  Loader::Instance().Require("text");
  Loader::Instance().Require("table");

  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.ResetAll();
  Tracer& tracer = Tracer::Instance();
  tracer.Clear();
  tracer.SetEnabled(true);

  // The §2 auxiliary-object chain: table -> ChartData -> two chart views.
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 400, 200, "charts");
  TableData table;
  table.Resize(6, 2);
  for (int r = 0; r < 6; ++r) {
    table.SetText(r, 0, "row" + std::to_string(r));
    table.SetNumber(r, 1, r * 10 + 5);
  }
  ChartData chart;
  chart.SetSource(&table);
  GridHost host;
  PieChartView pie;
  BarChartView bar;
  pie.SetDataObject(&chart);
  bar.SetDataObject(&chart);
  host.AddChild(&pie);
  host.AddChild(&bar);
  im->SetChild(&host);
  im->RunOnce();
  // Several scattered edits, one coalesced cycle.
  table.SetNumber(2, 1, 99);
  table.SetNumber(4, 1, 7);
  im->RunOnce();
  tracer.SetEnabled(false);

  std::vector<SpanRecord> spans = tracer.Collect();
  int cycles = 0;
  int view_updates = 0;
  std::vector<std::string> cycle_children;
  for (const SpanRecord& span : spans) {
    if (span.name_view() == "im.update.cycle") {
      ++cycles;
      EXPECT_EQ(span.depth, 0);
    } else if (span.name_view().substr(0, 7) == "update.") {
      ++view_updates;
      EXPECT_GE(span.depth, 1) << "per-view spans nest inside the cycle span";
      cycle_children.emplace_back(span.name_view());
    }
  }
  EXPECT_GE(cycles, 1) << "at least one coalesced update pass";
  EXPECT_GE(view_updates, 2) << "both chart views updated inside the pass";
  EXPECT_NE(std::find(cycle_children.begin(), cycle_children.end(), "update.piechartview"),
            cycle_children.end());
  EXPECT_NE(std::find(cycle_children.begin(), cycle_children.end(), "update.barchartview"),
            cycle_children.end());

  TraceSnapshot snap = observability::Snapshot();
  auto counter = [&snap](std::string_view name) -> uint64_t {
    for (const auto& sample : snap.counters) {
      if (sample.name == name) {
        return sample.value;
      }
    }
    return 0;
  };
  EXPECT_GE(counter("im.update.run"), 1u);
  EXPECT_GE(counter("im.view.updated"), 2u);
  EXPECT_GE(counter("view.update.posted"), 1u);
  // Coalescing can only merge damage: rects processed never exceed posts.
  EXPECT_LE(counter("im.damage.coalesced"), counter("im.damage.posted"));

  pie.SetDataObject(nullptr);
  bar.SetDataObject(nullptr);
}

TEST(Observability, MetricNamingConvention) {
  // Every registered metric follows `layer.noun.verb`: exactly three
  // non-empty lower-case [a-z0-9_] segments joined by dots.  Per-instance
  // segments (server.endpoint_<id>.*) keep the shape: the id folds into the
  // middle segment.
  auto well_formed = [](const std::string& name) {
    int segments = 1;
    size_t run = 0;
    for (char c : name) {
      if (c == '.') {
        if (run == 0) {
          return false;
        }
        ++segments;
        run = 0;
      } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
        ++run;
      } else {
        return false;
      }
    }
    return run > 0 && segments == 3;
  };
  // Time-valued metrics use one canonical wall-clock unit: microseconds
  // (`_us`, like class.module.load_us and server.propagation.latency_us).
  // A `_ns` or `_ms` suffix is a unit mixup waiting for a dashboard —
  // reject it.  Simulated-clock durations stay in `_ticks`.
  auto unit_consistent = [](const std::string& name) {
    auto ends_with = [&name](std::string_view suffix) {
      return name.size() >= suffix.size() &&
             std::string_view(name).substr(name.size() - suffix.size()) == suffix;
    };
    return !ends_with("_ns") && !ends_with("_ms");
  };
  // Byte-valued metrics use exactly one unit and one spelling: a `_bytes`
  // suffix (PR 9's memory accounts set the shape: text.mem.gapbuffer_bytes,
  // obs.mem.total_bytes).  Scaled units (`_kb`, `_mb`, ...) and vague
  // suffixes (`_mem`) are rejected outright, and any name that talks about
  // bytes or lives in a `.mem.` namespace must end with `_bytes` — a bare
  // `.bytes` segment (the pre-PR-9 datastream.reader.bytes) hides the unit
  // from the suffix rule that every dashboard keys on.
  auto byte_unit_consistent = [](const std::string& name) {
    auto ends_with = [&name](std::string_view suffix) {
      return name.size() >= suffix.size() &&
             std::string_view(name).substr(name.size() - suffix.size()) == suffix;
    };
    if (ends_with("_kb") || ends_with("_mb") || ends_with("_gb") ||
        ends_with("_kib") || ends_with("_mib") || ends_with("_mem")) {
      return false;
    }
    bool byte_valued = name.find("bytes") != std::string::npos ||
                       name.find(".mem.") != std::string::npos;
    return !byte_valued || ends_with("_bytes");
  };
  // The rule itself must reject the shapes it was written against.
  EXPECT_FALSE(byte_unit_consistent("text.mem.gapbuffer_kb"));
  EXPECT_FALSE(byte_unit_consistent("text.gapbuffer.storage_mem"));
  EXPECT_FALSE(byte_unit_consistent("datastream.reader.bytes"));
  EXPECT_FALSE(byte_unit_consistent("salvage.bytes.quarantined"));
  EXPECT_FALSE(byte_unit_consistent("text.mem.gapbuffer"));
  EXPECT_TRUE(byte_unit_consistent("text.mem.gapbuffer_bytes"));
  EXPECT_TRUE(byte_unit_consistent("datastream.reader.ingested_bytes"));
  TraceSnapshot snap = observability::Snapshot();
  EXPECT_FALSE(snap.counters.empty());
  for (const auto& sample : snap.counters) {
    EXPECT_TRUE(well_formed(sample.name)) << "counter: " << sample.name;
    EXPECT_TRUE(unit_consistent(sample.name)) << "counter: " << sample.name;
    EXPECT_TRUE(byte_unit_consistent(sample.name)) << "counter: " << sample.name;
  }
  for (const auto& sample : snap.gauges) {
    EXPECT_TRUE(well_formed(sample.name)) << "gauge: " << sample.name;
    EXPECT_TRUE(unit_consistent(sample.name)) << "gauge: " << sample.name;
    EXPECT_TRUE(byte_unit_consistent(sample.name)) << "gauge: " << sample.name;
  }
  for (const auto& sample : snap.histograms) {
    EXPECT_TRUE(well_formed(sample.name)) << "histogram: " << sample.name;
    EXPECT_TRUE(unit_consistent(sample.name)) << "histogram: " << sample.name;
    EXPECT_TRUE(byte_unit_consistent(sample.name)) << "histogram: " << sample.name;
  }
}

TEST(Observability, ToTextRendersEverySection) {
  Tracer& tracer = Tracer::Instance();
  tracer.Clear();
  tracer.SetEnabled(true);
  { ScopedSpan span("totext.span.demo"); }
  tracer.SetEnabled(false);
  MetricsRegistry::Instance().counter("totext.counter.demo").Add(3);
  std::string text = observability::ToText(observability::Snapshot());
  EXPECT_NE(text.find("totext.span.demo"), std::string::npos);
  EXPECT_NE(text.find("totext.counter.demo"), std::string::npos);
  EXPECT_NE(text.find("spans"), std::string::npos);
}

}  // namespace
}  // namespace atk
