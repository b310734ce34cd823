// The application-shaped scenario suite (DESIGN.md §10): typescript
// streaming, the mail corpus, and deterministic collaborative replay.
//
// The determinism contract under test: every scenario is a pure function of
// its spec.  Same seed ⇒ byte-identical final documents, over a clean
// transport or a faulted one.  A ctest entry re-runs the replay tests with
// ATK_NET_FAULTS exported, so the digests asserted here are pinned across
// both configurations by the same assertions.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/metric_lines.h"
#include "src/class_system/observable.h"
#include "src/components/text/text_data.h"
#include "src/observability/observability.h"
#include "src/workload/edit_replay.h"
#include "src/workload/mail_corpus.h"
#include "src/workload/scenario.h"
#include "src/workload/session_trace.h"
#include "src/workload/typescript_stream.h"
#include "tests/test_json.h"

namespace atk {
namespace {

using testjson::JsonValue;
using testjson::ParseJson;

// ---- Typescript / console stream -------------------------------------------

TEST(TypescriptStream, SameSeedSameBytesAndPixels) {
  TypescriptStreamSpec spec;
  spec.seed = 5;
  spec.lines = 512;
  spec.batch_lines = 32;
  spec.views = 2;
  TypescriptStreamResult first = RunTypescriptStream(spec);
  TypescriptStreamResult second = RunTypescriptStream(spec);
  EXPECT_EQ(first.lines, 512);
  EXPECT_EQ(first.transcript_digest, second.transcript_digest);
  EXPECT_EQ(first.display_hash, second.display_hash);
  EXPECT_EQ(first.line_count, second.line_count);
  EXPECT_GT(first.bytes, 0);

  TypescriptStreamSpec other = spec;
  other.seed = 6;
  TypescriptStreamResult different = RunTypescriptStream(other);
  EXPECT_NE(first.transcript_digest, different.transcript_digest)
      << "a different seed must produce a different console stream";
}

TEST(TypescriptStream, TranscriptMatchesGeneratorIndependentOfViews) {
  // The view tree must never feed back into the document: the transcript is
  // exactly the generated lines no matter how many views watched them.
  TypescriptStreamSpec spec;
  spec.seed = 9;
  spec.lines = 200;
  spec.batch_lines = 7;  // Deliberately not a divisor of `lines`.
  spec.views = 1;
  std::string expected;
  for (int64_t i = 0; i < spec.lines; ++i) {
    expected += TypescriptLine(spec.seed, i);
    expected += '\n';
  }
  TypescriptStreamResult one_view = RunTypescriptStream(spec);
  EXPECT_EQ(one_view.transcript_digest, Fnv1a64(expected));
  spec.views = 3;
  TypescriptStreamResult three_views = RunTypescriptStream(spec);
  EXPECT_EQ(three_views.transcript_digest, Fnv1a64(expected));
}

TEST(TypescriptStream, BatchedAppendsReuseLayoutPrefix) {
  TypescriptStreamSpec spec;
  spec.seed = 3;
  spec.lines = 600;
  spec.batch_lines = 50;
  TypescriptStreamResult result = RunTypescriptStream(spec);
  EXPECT_GT(result.layout_lines_reused, 0u)
      << "tail appends must hit the layout prefix cache, not re-measure "
         "the whole transcript each batch";
  EXPECT_EQ(result.update_cycles, 1 + spec.lines / spec.batch_lines);
}

TEST(TypescriptStream, GeneratedLinesAreSevenBitPrintable) {
  for (int64_t i = 0; i < 200; ++i) {
    std::string line = TypescriptLine(77, i);
    for (char c : line) {
      unsigned char byte = static_cast<unsigned char>(c);
      ASSERT_TRUE(byte >= 0x20 && byte < 0x7F)
          << "line " << i << " carries unprintable byte " << static_cast<int>(byte);
    }
  }
}

// ---- Mail corpus ------------------------------------------------------------

TEST(MailCorpus, CleanCorpusRoundTripsByteIdentically) {
  MailCorpusSpec spec;
  spec.seed = 21;
  spec.messages = 24;
  spec.embed_fraction = 0.6;
  spec.corrupt_fraction = 0.0;
  MailCorpusResult result = RunMailCorpus(spec);
  EXPECT_EQ(result.messages, 24);
  EXPECT_EQ(result.clean_roundtrip_mismatches, 0)
      << "a clean write -> read -> re-write cycle must be byte-identical";
  EXPECT_EQ(result.read_failures, 0);
  EXPECT_EQ(result.delivered, 24) << "every surviving body must be 7-bit mailable";
  EXPECT_EQ(result.corpus_digest, RunMailCorpus(spec).corpus_digest);
}

TEST(MailCorpus, CorruptedMessagesSurviveThroughSalvage) {
  MailCorpusSpec spec;
  spec.seed = 55;
  spec.messages = 20;
  spec.corrupt_fraction = 0.5;
  spec.stream_faults = 2;
  MailCorpusResult result = RunMailCorpus(spec);
  EXPECT_GT(result.salvaged, 0) << "the corrupt fraction must actually corrupt";
  EXPECT_EQ(result.read_failures, 0)
      << "every salvaged message must still parse into a document";
  EXPECT_EQ(result.corpus_digest, RunMailCorpus(spec).corpus_digest)
      << "corruption + salvage is seeded and must be deterministic";
}

// ---- Edit-trace recording format --------------------------------------------

SessionTraceSpec SmallTraceSpec(uint64_t seed = 13) {
  SessionTraceSpec spec;
  spec.seed = seed;
  spec.sessions = 3;
  spec.steps = 40;
  spec.initial_size = 128;
  return spec;
}

void ExpectTracesEqual(const EditTrace& a, const EditTrace& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.initial_text, b.initial_text);
  ASSERT_EQ(a.edits.size(), b.edits.size());
  for (size_t i = 0; i < a.edits.size(); ++i) {
    EXPECT_EQ(a.edits[i].version, b.edits[i].version) << "edit " << i;
    EXPECT_EQ(a.edits[i].session, b.edits[i].session) << "edit " << i;
    EXPECT_EQ(a.edits[i].insert, b.edits[i].insert) << "edit " << i;
    EXPECT_EQ(a.edits[i].pos, b.edits[i].pos) << "edit " << i;
    EXPECT_EQ(a.edits[i].len, b.edits[i].len) << "edit " << i;
    EXPECT_EQ(a.edits[i].text, b.edits[i].text) << "edit " << i;
  }
}

TEST(EditTrace, RecordingIsDeterministic) {
  EditTrace first = RecordEditTrace(SmallTraceSpec());
  EditTrace second = RecordEditTrace(SmallTraceSpec());
  ExpectTracesEqual(first, second);
  EXPECT_FALSE(first.edits.empty());
  // Versions are consecutive from 1: only applied edits bump the document.
  for (size_t i = 0; i < first.edits.size(); ++i) {
    EXPECT_EQ(first.edits[i].version, i + 1) << "edit " << i;
  }
}

TEST(EditTrace, RoundTripsThroughDatastream) {
  EditTrace trace = RecordEditTrace(SmallTraceSpec());
  std::string wire = EditTraceToDatastream(trace);
  // The recording is a §5 document: 7-bit, bounded lines.
  for (char c : wire) {
    unsigned char byte = static_cast<unsigned char>(c);
    ASSERT_TRUE(byte == '\n' || (byte >= 0x20 && byte < 0x7F));
  }
  EditTrace parsed;
  ASSERT_TRUE(EditTraceFromDatastream(wire, &parsed).ok());
  ExpectTracesEqual(trace, parsed);
  EXPECT_EQ(EditTraceToDatastream(parsed), wire)
      << "re-serializing a parsed trace must be byte-identical";
}

TEST(EditTrace, UnknownDirectivesAreSkippedForForwardCompat) {
  EditTrace trace = RecordEditTrace(SmallTraceSpec());
  std::string wire = EditTraceToDatastream(trace);
  size_t end = wire.find("\\enddata{editrace");
  ASSERT_NE(end, std::string::npos);
  wire.insert(end, "\\futurefield{3,something}\n");
  EditTrace parsed;
  ASSERT_TRUE(EditTraceFromDatastream(wire, &parsed).ok())
      << "a newer recorder's extra directives must not break an older reader";
  ExpectTracesEqual(trace, parsed);
}

TEST(EditTrace, TruncatedAndDamagedInputsAreRejected) {
  EditTrace trace = RecordEditTrace(SmallTraceSpec());
  std::string wire = EditTraceToDatastream(trace);
  EditTrace parsed;
  EXPECT_FALSE(EditTraceFromDatastream(wire.substr(0, wire.size() / 2), &parsed).ok());
  std::string bad_hex = wire;
  size_t edit_pos = bad_hex.find("\\edit{");
  ASSERT_NE(edit_pos, std::string::npos);
  bad_hex.replace(edit_pos, 6, "\\edit{ZZ,");
  EXPECT_FALSE(EditTraceFromDatastream(bad_hex, &parsed).ok());
  EXPECT_FALSE(EditTraceFromDatastream("plain text, no object", &parsed).ok());
}

TEST(EditTrace, OutOfRangeNumbersAreCorrupt) {
  auto read = [](const std::string& sessions, const std::string& version,
                 const std::string& session) {
    EditTrace out;
    return EditTraceFromDatastream("\\begindata{editrace,1}\n\\replaymeta{1,7," + sessions +
                                       ",1}\n\\inittext{}\n\\edit{" + version + "," + session +
                                       ",d,0,1,}\n\\enddata{editrace,1}\n",
                                   &out);
  };
  EXPECT_TRUE(read("1", "5", "0").ok());
  EXPECT_TRUE(read("2147483647", "18446744073709551615", "2147483647").ok());
  // A 20-digit version used to wrap and read.
  EXPECT_EQ(read("1", "99999999999999999999", "0").code(), StatusCode::kCorrupt);
  // Session counts and ids past INT_MAX used to be narrowed into an int.
  EXPECT_EQ(read("4294967296", "5", "0").code(), StatusCode::kCorrupt);
  EXPECT_EQ(read("1", "5", "2147483648").code(), StatusCode::kCorrupt);
}

// ---- Replay determinism -----------------------------------------------------

TEST(Replay, CleanReplayMatchesOracle) {
  EditTrace trace = RecordEditTrace(SmallTraceSpec());
  std::string expected = ExpectedReplayText(trace);
  ReplayResult result = ReplayEditTrace(trace);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.replicas_converged);
  EXPECT_EQ(result.final_text, expected);
  EXPECT_EQ(result.final_digest, Fnv1a64(expected));
  EXPECT_EQ(result.final_version, trace.edits.size());
  EXPECT_EQ(result.edits_applied, static_cast<int64_t>(trace.edits.size()));
}

TEST(Replay, ByteDeterministicUnderSeededTransportFaults) {
  EditTrace trace = RecordEditTrace(SmallTraceSpec(31));
  std::string expected = ExpectedReplayText(trace);
  for (uint64_t fault_seed = 1; fault_seed <= 6; ++fault_seed) {
    ReplayOptions options;
    options.fault_seed = fault_seed * 97;
    ReplayResult result = ReplayEditTrace(trace, options);
    EXPECT_TRUE(result.completed) << "fault seed " << fault_seed;
    EXPECT_TRUE(result.replicas_converged) << "fault seed " << fault_seed;
    EXPECT_EQ(result.final_text, expected)
        << "fault seed " << fault_seed
        << ": a faulted transport must not change the final bytes";
  }
}

TEST(Replay, HonorsNetFaultsEnvKnob) {
  // Over a clean environment this is a clean replay; the
  // scenarios_env_net_faults ctest entry re-runs it with ATK_NET_FAULTS
  // exported, holding the same byte-determinism bar under that plan.
  EditTrace trace = RecordEditTrace(SmallTraceSpec(47));
  ReplayOptions options;
  options.use_env_faults = true;
  ReplayResult result = ReplayEditTrace(trace, options);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.replicas_converged);
  EXPECT_EQ(result.final_text, ExpectedReplayText(trace));
}

TEST(Replay, SerializedTraceReplaysIdenticallyToLiveOne) {
  EditTrace live = RecordEditTrace(SmallTraceSpec(19));
  std::string wire = EditTraceToDatastream(live);
  EditTrace parsed;
  ASSERT_TRUE(EditTraceFromDatastream(wire, &parsed).ok());
  ReplayResult from_live = ReplayEditTrace(live);
  ReplayResult from_wire = ReplayEditTrace(parsed);
  EXPECT_EQ(from_live.final_digest, from_wire.final_digest);
  EXPECT_EQ(from_live.final_text, from_wire.final_text);

  // CI artifact hook: export the recording so a failed replay can be
  // inspected (and replayed locally) from the uploaded trace document.
  const char* export_path = std::getenv("ATK_SCENARIO_TRACE_EXPORT");
  if (export_path != nullptr && export_path[0] != '\0') {
    std::ofstream out(export_path, std::ios::binary);
    out << wire;
    ASSERT_TRUE(out.good()) << "could not write trace artifact to " << export_path;
  }
}

// ---- session_trace seed stability -------------------------------------------

// Canonical digest over every field the trace encoding carries; an RNG or
// generator change flips it.
uint64_t SessionTraceDigest(const SessionTrace& trace) {
  uint64_t digest = Fnv1a64(trace.initial_text);
  for (const TraceStep& step : trace.steps) {
    std::string enc = std::to_string(step.session) + (step.insert ? "i" : "d") +
                      std::to_string(step.pos) + "," + std::to_string(step.len) + "," +
                      step.text;
    digest = Fnv1a64(enc, digest);
  }
  return digest;
}

TEST(SessionTraceGolden, SeedSevenIsPinned) {
  // Golden digests: a deliberate generator change re-records them here; an
  // accidental one breaks this test instead of a downstream replay.
  SessionTraceSpec spec;
  spec.seed = 7;
  SessionTrace trace = BuildSessionTrace(spec);
  EXPECT_EQ(SessionTraceDigest(trace), 0xd139ba1c6ab99ccfull);
  EXPECT_EQ(Fnv1a64(ExpectedFinalText(trace)), 0x61daf16aa6111489ull);
}

TEST(SessionTraceGolden, SeedFortyTwoIsPinned) {
  SessionTraceSpec spec;
  spec.seed = 42;
  SessionTrace trace = BuildSessionTrace(spec);
  EXPECT_EQ(SessionTraceDigest(trace), 0xd739bb25394bf50dull);
  EXPECT_EQ(Fnv1a64(ExpectedFinalText(trace)), 0x7d07f7be34cef5d0ull);
}

// ---- Bench JSON output ------------------------------------------------------

TEST(BenchJson, MetricSnapshotLinesAreStrictJson) {
  // Populate the registry the way the scenario benches do, then hold every
  // line the bench binaries would print to the strict parser the
  // observability suite uses — the emitters must never drift apart.
  RunTypescriptStream(TypescriptStreamSpec{.seed = 2, .lines = 64, .batch_lines = 16});
  MailCorpusSpec mail;
  mail.seed = 2;
  mail.messages = 4;
  RunMailCorpus(mail);
  std::string lines = atk_bench::RenderMetricsSnapshot("bench_scenarios");
  ASSERT_FALSE(lines.empty());
  size_t parsed_lines = 0;
  size_t start = 0;
  while (start < lines.size()) {
    size_t end = lines.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "every metric line must be newline-terminated";
    std::string line = lines.substr(start, end - start);
    start = end + 1;
    JsonValue root;
    ASSERT_TRUE(ParseJson(line, &root)) << "not strict JSON: " << line;
    ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
    const JsonValue* bench = root.Get("bench");
    const JsonValue* metric = root.Get("metric");
    const JsonValue* value = root.Get("value");
    const JsonValue* unit = root.Get("unit");
    ASSERT_NE(bench, nullptr);
    EXPECT_EQ(bench->str, "bench_scenarios");
    ASSERT_NE(metric, nullptr);
    EXPECT_TRUE(metric->str.rfind("counter/", 0) == 0 ||
                metric->str.rfind("gauge/", 0) == 0 ||
                metric->str.rfind("histogram/", 0) == 0)
        << "snapshot metrics must be namespaced: " << metric->str;
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->kind, JsonValue::Kind::kNumber);
    ASSERT_NE(unit, nullptr);
    ++parsed_lines;
  }
  EXPECT_GT(parsed_lines, 4u);
  // The scenario counters the benches gate on must be present.
  EXPECT_NE(lines.find("counter/scenario.typescript.lines"), std::string::npos);
  EXPECT_NE(lines.find("counter/scenario.mail.roundtrips"), std::string::npos);
}

TEST(BenchJson, EscapingSurvivesHostileNames) {
  std::string line;
  atk_bench::FormatMetricLine(&line, "bench\"quote\\slash", "metric\nnewline", 1.5, "ns");
  JsonValue root;
  ASSERT_TRUE(ParseJson(line, &root)) << "escaping must keep the line strict: " << line;
  EXPECT_EQ(root.Get("value")->number, 1.5);
}

// ---- TextData bulk append under concurrent observation ----------------------

// The typescript scenario's hot path: a stream of tail appends, each
// notifying observers synchronously, while another thread concurrently
// snapshots the observability registry (exactly what the inspector and the
// bench snapshot emitters do).  Document mutation stays single-threaded —
// that is the observer contract — so the cross-thread traffic under TSan is
// the metrics/tracer plumbing the observers drive.
TEST(BulkAppend, ObserverNotificationUnderConcurrentSnapshots) {
  class CountingObserver : public Observer {
   public:
    void ObservedChanged(Observable* changed, const Change& change) override {
      (void)changed;
      if (change.kind == Change::Kind::kInserted) {
        inserted_units += change.added;
        ++notifications;
        observability::MetricsRegistry::Instance()
            .counter("scenario.typescript.lines")
            .Add(1);
      }
    }
    int64_t inserted_units = 0;
    int notifications = 0;
  };

  constexpr int kLines = 2000;
  TextData transcript;
  CountingObserver observer;
  transcript.AddObserver(&observer);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots{0};
  std::thread prober([&] {
    while (!done.load(std::memory_order_acquire)) {
      observability::TraceSnapshot snap = observability::Snapshot();
      snapshots.fetch_add(1, std::memory_order_relaxed);
      (void)snap;
    }
  });
  // Don't start appending until the prober is demonstrably running, so the
  // two loops genuinely overlap (the appends are fast enough to finish
  // before a freshly-spawned thread gets scheduled at all).
  while (snapshots.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  int64_t appended_bytes = 0;
  for (int64_t i = 0; i < kLines; ++i) {
    std::string line = TypescriptLine(123, i);
    line += '\n';
    transcript.InsertString(transcript.size(), line);
    appended_bytes += static_cast<int64_t>(line.size());
  }
  done.store(true, std::memory_order_release);
  prober.join();

  EXPECT_EQ(observer.notifications, kLines);
  EXPECT_EQ(observer.inserted_units, appended_bytes);
  EXPECT_EQ(transcript.size(), appended_bytes);
  EXPECT_GT(snapshots.load(), 0u) << "the prober must have raced at least once";
  // The bytes must match a serial rebuild: concurrency must not corrupt.
  std::string expected;
  for (int64_t i = 0; i < kLines; ++i) {
    expected += TypescriptLine(123, i);
    expected += '\n';
  }
  EXPECT_EQ(transcript.GetAllText(), expected);
  transcript.RemoveObserver(&observer);
}

}  // namespace
}  // namespace atk
