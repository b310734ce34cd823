// The benchmark harness: one workload per process, run in a closed loop for a
// fixed time, its outputs checked, its metrics printed by name and unit.
//
// Each workload times the toolkit calls it makes from outside.  The calls
// are also wrapped in harness-side observability::ScopedSpans; they record
// nothing unless the traced phase has turned the Tracer on, when the
// harness hands every op's spans (its own and the program's) to
// the workload to turn into per-layer numbers.

#ifndef PERFBENCH_HARNESS_HARNESS_H_
#define PERFBENCH_HARNESS_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/observability/observability.h"
#include "stats.h"

namespace perfbench {

// One reported number.  `samples` is what the value rests on (ops, spans,
// documents); 0 means the workload does not exercise that layer.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

// Nanoseconds on the monotonic clock the tracer also uses.
inline uint64_t NowNs() { return atk::observability::MonotonicNanos(); }
inline double Us(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

// One op as the simulated user saw it.
struct OpSample {
  double latency_us = 0.0;  // The op itself.
  double busy_us = 0.0;     // The op plus user-visible work attached to it
                            // (keystroke jumps, document close); the harness's
                            // own checks are never included.
};

class Workload {
 public:
  virtual ~Workload() = default;

  // The op sequence repeats exactly every cycle_ops() ops: op k and op
  // k + cycle_ops() do the same work on the same state (see CycleTable).
  // Re-creating that state between cycles is the workload's own untimed
  // work.
  virtual size_t cycle_ops() const = 0;

  // Runs one op and checks what can be checked per op.
  virtual OpSample RunOp() = 0;

  // Traced phase only: the spans recorded during the op just run.
  virtual void AbsorbSpans(const std::vector<SpanNode>& tree) = 0;

  // Ends the run: drains, runs the whole-run output checks.  Returns false
  // (with a reason) when an output is wrong.
  virtual bool Finish(std::string* why) = 0;

  // Ops attempted, and ops whose output failed a check.  Defects of the
  // program that the benchmark measures as a rate (collab's lost and
  // duplicated edits, mail's refused messages) are counted in the per-layer
  // fail_ratio instead, so that these two counts do not depend on how many
  // ops a run fits in.
  virtual uint64_t attempted() const = 0;
  virtual uint64_t failed() const = 0;

  // Per-layer metrics the workload measures (names from kLayerMetrics),
  // fail_ratio included.
  virtual std::vector<Metric> LayerMetrics() const = 0;
};

// Builds a workload's inputs and state from its seed.
using WorkloadFactory = std::unique_ptr<Workload> (*)(uint64_t seed);

std::unique_ptr<Workload> MakeKeystroke(uint64_t seed);
std::unique_ptr<Workload> MakeOpen(uint64_t seed);
std::unique_ptr<Workload> MakeCollab(uint64_t seed);
std::unique_ptr<Workload> MakeMail(uint64_t seed);

// Registers the standard modules and loads the component modules every
// workload's documents use.  Idempotent; the first call pays the loads.
void LoadToolkitModules();

// splitmix64 of `seed` and `salt`: independent generator seeds per input.
uint64_t Mix(uint64_t seed, uint64_t salt);

// Helpers shared by the workloads' LayerMetrics.
Metric MedianMetric(const std::string& name, const std::vector<double>& values,
                    const std::string& unit = "us");
Metric RatioMetric(const std::string& name, double numerator, double denominator,
                   const std::string& unit, size_t samples);

// Runs one workload as perfbench/README.md describes, prints the result and
// returns the process exit code.
int RunBenchmark(const std::string& workload, uint64_t seed, double seconds, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HARNESS_H_
