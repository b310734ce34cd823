// The application-shaped scenario suite under the clock (DESIGN.md §10).
//
// Three whole-application workloads, each crossing several layers per
// iteration so a regression in any of them moves a headline number:
//
//   BM_TypescriptStream   — console lines into a live view tree (text
//                           ingestion + observer notify + damage coalescing
//                           + layout prefix reuse)
//   BM_MailCorpusRoundTrip — compound documents through write -> corrupt ->
//                           salvage -> read -> re-write -> re-read (writer
//                           chunking, zero-copy reader, embedded-object
//                           decode, salvager)
//   BM_ReplayFanOut       — a recorded multi-session edit trace replayed
//                           against a fresh server (observer fan-out,
//                           go-back-N, resync)
//
// Beyond the wall-time rows, the observability snapshot contributes the
// acceptance numbers the perf gates (perf_baseline.json) bound:
//   gauge/scenario.bench.typescript_lines_per_sec
//   gauge/scenario.bench.mail_docs_per_sec
//   gauge/scenario.bench.replay_fanout_p99_us
//   histogram/scenario.replay.fanout_us/p99

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include <chrono>

#include "src/observability/observability.h"
#include "src/workload/edit_replay.h"
#include "src/workload/mail_corpus.h"
#include "src/workload/typescript_stream.h"

namespace atk {
namespace {

using observability::MetricsRegistry;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void BM_TypescriptStream(benchmark::State& state) {
  TypescriptStreamSpec spec;
  spec.seed = 17;
  spec.lines = static_cast<int>(state.range(0));
  spec.batch_lines = 64;
  spec.views = 2;
  int64_t lines = 0;
  int64_t bytes = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    TypescriptStreamResult result = RunTypescriptStream(spec);
    seconds += SecondsSince(start);
    benchmark::DoNotOptimize(result.transcript_digest);
    lines += result.lines;
    bytes += result.bytes;
  }
  state.SetItemsProcessed(lines);
  state.SetBytesProcessed(bytes);
  if (seconds > 0.0) {
    MetricsRegistry::Instance()
        .gauge("scenario.bench.typescript_lines_per_sec")
        .SetMax(static_cast<int64_t>(static_cast<double>(lines) / seconds));
  }
}
BENCHMARK(BM_TypescriptStream)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_MailCorpusRoundTrip(benchmark::State& state) {
  MailCorpusSpec spec;
  spec.seed = 29;
  spec.messages = static_cast<int>(state.range(0));
  spec.folders = 4;
  spec.embed_fraction = 0.5;
  spec.corrupt_fraction = 0.25;
  spec.stream_faults = 2;
  int64_t docs = 0;
  int64_t bytes = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    MailCorpusResult result = RunMailCorpus(spec);
    seconds += SecondsSince(start);
    benchmark::DoNotOptimize(result.corpus_digest);
    docs += result.messages;
    bytes += result.bytes_written;
    if (result.read_failures != 0 || result.clean_roundtrip_mismatches != 0) {
      state.SkipWithError("mail corpus round trip corrupted data");
      return;
    }
  }
  state.SetItemsProcessed(docs);
  state.SetBytesProcessed(bytes);
  if (seconds > 0.0) {
    MetricsRegistry::Instance()
        .gauge("scenario.bench.mail_docs_per_sec")
        .SetMax(static_cast<int64_t>(static_cast<double>(docs) / seconds));
  }
}
BENCHMARK(BM_MailCorpusRoundTrip)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ReplayFanOut(benchmark::State& state) {
  SessionTraceSpec trace_spec;
  trace_spec.seed = 11;
  trace_spec.sessions = 3;
  trace_spec.steps = static_cast<int>(state.range(0));
  // Recording drives a live lock-step server; do it once, outside the timed
  // loop — the replay is the measured path.
  static const EditTrace& trace = *new EditTrace(RecordEditTrace(trace_spec));
  std::string expected = ExpectedReplayText(trace);
  int64_t edits = 0;
  for (auto _ : state) {
    ReplayResult result = ReplayEditTrace(trace);
    benchmark::DoNotOptimize(result.final_digest);
    edits += result.edits_applied;
    if (!result.completed || !result.replicas_converged || result.final_text != expected) {
      state.SkipWithError("replay diverged from the recorded trace");
      return;
    }
  }
  state.SetItemsProcessed(edits);
  // The engine observed per-edit submit->applied wall time into
  // scenario.replay.fanout_us; surface its p99 as the gated gauge.
  MetricsRegistry::Instance()
      .gauge("scenario.bench.replay_fanout_p99_us")
      .SetMax(static_cast<int64_t>(
          MetricsRegistry::Instance().histogram("scenario.replay.fanout_us").p99()));
}
BENCHMARK(BM_ReplayFanOut)->Arg(48)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace atk

ATK_BENCH_MAIN("bench_scenarios");
