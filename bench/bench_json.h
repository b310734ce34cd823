// Shared benchmark main(): console table plus machine-readable JSON lines.
//
// Every bench binary emits, in addition to google-benchmark's usual console
// output, one JSON object per completed measurement on stdout:
//
//   {"bench":"bench_update","metric":"BM_CoalescedUpdate/64","value":123.4,
//    "unit":"ns","iterations":10000}
//
// After the timed runs, the binary also dumps the final observability
// snapshot in the same line shape, namespaced so it can never collide with a
// benchmark name (see bench/metric_lines.h, which holds the benchmark-free
// emitter so tests can validate the exact output):
//
//   {"bench":"bench_update","metric":"counter/im.update.run","value":51,
//    "unit":"count","iterations":1}
//
// so BENCH_RESULTS.json answers not just "how fast" but "doing how much
// work" (damage posts per cycle, clip reuses, span drops, ...).
//
// bench/run_all.sh collects these lines from every binary into
// BENCH_RESULTS.json.  A benchmark that errors (SkipWithError, setup
// failure) produces no timing line; the reporter counts those and
// ATK_BENCH_MAIN exits non-zero with the names on stderr — a partially
// wedged binary must fail the sweep, not pass on its surviving siblings'
// lines.
//
// Replace BENCHMARK_MAIN(); at the bottom of a bench file with
// ATK_BENCH_MAIN("bench_whatever");

#ifndef ATK_BENCH_BENCH_JSON_H_
#define ATK_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/metric_lines.h"

namespace atk_bench {

// Console reporter that additionally prints one JSON line per run and
// records every errored run by name.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonLineReporter(std::string bench) : bench_(std::move(bench)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    std::fflush(nullptr);  // Keep the table and the JSON lines ordered.
    for (const Run& run : runs) {
      if (run.error_occurred) {
        errored_.push_back(run.benchmark_name() + ": " + run.error_message);
        continue;
      }
      std::printf(
          "{\"bench\":\"%s\",\"metric\":\"%s\",\"value\":%.6g,"
          "\"unit\":\"%s\",\"iterations\":%lld}\n",
          JsonEscape(bench_).c_str(), JsonEscape(run.benchmark_name()).c_str(),
          run.GetAdjustedRealTime(), benchmark::GetTimeUnitString(run.time_unit),
          static_cast<long long>(run.iterations));
    }
    std::fflush(stdout);
  }

  const std::vector<std::string>& errored() const { return errored_; }

 private:
  std::string bench_;
  std::vector<std::string> errored_;
};

}  // namespace atk_bench

#define ATK_BENCH_MAIN(bench_name)                                          \
  int main(int argc, char** argv) {                                         \
    /* Env plumbing (ATK_TRACE, ATK_MEM_SNAPSHOT) applies to every bench   \
       binary, windowed or not. */                                          \
    ::atk::observability::InitFromEnv();                                    \
    ::benchmark::Initialize(&argc, argv);                                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    ::atk_bench::JsonLineReporter reporter{bench_name};                     \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                         \
    ::atk_bench::EmitMetricsSnapshot(bench_name);                           \
    ::benchmark::Shutdown();                                                \
    if (!reporter.errored().empty()) {                                      \
      for (const std::string& error : reporter.errored()) {                 \
        std::fprintf(stderr, "%s: benchmark errored: %s\n", bench_name,     \
                     error.c_str());                                        \
      }                                                                     \
      std::fprintf(stderr, "%s: %zu benchmark(s) errored\n", bench_name,    \
                   reporter.errored().size());                              \
      return 1;                                                             \
    }                                                                       \
    return 0;                                                               \
  }
#endif  // ATK_BENCH_BENCH_JSON_H_
