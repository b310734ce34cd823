// The harness's statistics: percentiles with their sample counts, self time
// from nested spans, and the edit-tag census behind the collab fail ratio.
//
// Standard-library only, so tests/stats_test.cc checks it without linking
// the toolkit.

#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of `values` (p in (0, 1]) together with how many
// samples it rests on: `beyond` counts the samples ranked above it, so a
// p99 with beyond < 10 is not to be trusted.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

Percentile PercentileOf(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Per-op latency from repeated cycles.  A workload's ops repeat exactly
// every `cycle` ops: op k and op k + cycle do the same work on the same
// state.  Op k is the slot k % cycle of repetition k / cycle.
//
// A slow stretch of the machine slows every op it covers.  Estimates()
// therefore divides each op's time by how slow its neighbours in the same
// repetition ran: the median, over the `window` slots on either side, of
// their time over their best time in any repetition.  A slot's estimate is
// the median of its corrected times over the repetitions, so one op caught
// by a brief stall does not count either.  The estimates read what the ops
// cost when nothing slows the machine, as long as some repetition of each
// stretch of the cycle ran at full speed.
//
// At most `max_reps` complete repetitions are kept, evenly spread over the
// run (every 2nd, then every 4th, ... once more have been recorded), so
// memory is fixed by the cycle and not by the op count.
class CycleTable {
 public:
  CycleTable(size_t cycle, size_t max_reps);
  void Add(double value);  // The next op of the sequence.
  uint64_t count() const { return count_; }  // Ops recorded.
  size_t cycle() const { return cycle_; }
  uint64_t full_cycles() const { return count_ / cycle_; }
  size_t kept_reps() const { return reps_.size(); }
  // One estimate per slot, from the kept complete repetitions (empty until
  // a cycle is complete).
  std::vector<double> Estimates(size_t window) const;

 private:
  size_t cycle_;
  size_t max_reps_;
  uint64_t count_ = 0;
  uint64_t stride_ = 1;  // Every stride_-th repetition is kept.
  std::vector<std::vector<float>> reps_;
  std::vector<float> current_;
};

// One completed span, as recorded: spans nest when one's interval lies
// inside another's on the same thread one level deeper.
struct SpanInput {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t thread = 0;
  uint16_t depth = 0;
  uint64_t flow = 0;
};

struct SpanNode {
  SpanInput span;
  int parent = -1;            // Index into the tree, -1 for a root.
  std::vector<int> children;  // In start order.
  uint64_t self_ns = 0;       // Duration minus the children's durations.
};

// Links every span to its enclosing span.  The result is ordered by
// (thread, start, depth), so parents precede their children.
std::vector<SpanNode> BuildSpanTree(std::vector<SpanInput> spans);

// Self time of node `index` plus that of every descendant reached through
// children whose names start with `family` — e.g. "server.fanout." counts
// the per-session fan-out spans as part of their fan-out.
uint64_t FamilySelfNs(const std::vector<SpanNode>& tree, int index, std::string_view family);

// The collab census.  Every edit inserts one tag `open id close`; inserts
// may land inside other tags, so tags are read with a bracket stack and a
// tag's id is its own characters with nested tags removed.  Returns
// id -> occurrences; `malformed` is set when brackets do not balance.
std::map<std::string, int> CountTags(std::string_view text, char open, char close,
                                     bool* malformed);

// Edits whose tag appears other than exactly once, against the submitted
// ids.  fail_ratio = (lost + duplicated) / submitted.
struct TagCensus {
  size_t submitted = 0;
  size_t lost = 0;        // Found 0 times.
  size_t duplicated = 0;  // Found more than once.
  double fail_ratio() const {
    return submitted == 0 ? 0.0 : static_cast<double>(lost + duplicated) / submitted;
  }
};

TagCensus CensusOf(const std::map<std::string, int>& counts,
                   const std::vector<std::string>& submitted);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
