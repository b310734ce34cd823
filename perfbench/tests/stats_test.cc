// Unit tests for the harness's statistics (harness/stats.h).  Plain checks,
// no framework: prints each failure and exits non-zero if any failed.
//
//   ctest --test-dir .bench_build/perfbench

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentileCarriesSampleCount() {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(1001 - i);  // Unsorted input: 1000 down to 1.
  }
  perfbench::Percentile p99 = perfbench::PercentileOf(values, 0.99);
  CHECK(Near(p99.value, 990.0));
  CHECK(p99.samples == 1000);
  CHECK(p99.beyond == 10);
  perfbench::Percentile p50 = perfbench::PercentileOf(values, 0.50);
  CHECK(Near(p50.value, 500.0));
  CHECK(p50.beyond == 500);
  // Too few samples: the p99 is the maximum and nothing lies beyond it.
  perfbench::Percentile thin = perfbench::PercentileOf({3.0, 1.0, 2.0}, 0.99);
  CHECK(Near(thin.value, 3.0));
  CHECK(thin.samples == 3);
  CHECK(thin.beyond == 0);
  perfbench::Percentile empty = perfbench::PercentileOf({}, 0.5);
  CHECK(empty.samples == 0 && empty.value == 0.0);
  CHECK(Near(perfbench::Median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(Near(perfbench::Median({5.0, 1.0, 3.0}), 3.0));
}

void TestCycleTableCorrectsSlowStretches() {
  perfbench::CycleTable partial(4, 8);
  partial.Add(5.0);
  CHECK(partial.count() == 1 && partial.full_cycles() == 0);
  CHECK(partial.Estimates(2).empty());
  // Six slots costing 10..60.  Repetition 1 runs its first half twice as
  // slow; in repetition 2 one op stalls to 500.
  std::vector<double> cost = {10, 20, 30, 40, 50, 60};
  perfbench::CycleTable table(6, 8);
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < cost.size(); ++i) {
      double value = cost[i];
      if (rep == 1 && i < 3) {
        value *= 2.0;
      }
      if (rep == 2 && i == 4) {
        value = 500.0;
      }
      table.Add(value);
    }
  }
  CHECK(table.full_cycles() == 3 && table.kept_reps() == 3);
  std::vector<double> estimates = table.Estimates(2);
  CHECK(estimates.size() == cost.size());
  for (size_t i = 0; i < cost.size(); ++i) {
    CHECK(Near(estimates[i], cost[i]));
  }
  // A slot whose every repetition was slow cannot be corrected.
  perfbench::CycleTable slow(2, 8);
  for (double value : {10.0, 40.0, 10.0, 40.0}) {
    slow.Add(value);
  }
  CHECK(slow.Estimates(1) == std::vector<double>({10.0, 40.0}));
}

void TestCycleTableKeepsRepetitionsSpreadOut() {
  // One slot, repetitions valued 0, 1, 2, ...: with four kept, the fifth
  // repetition halves them to every other one, and so on.
  perfbench::CycleTable table(1, 4);
  for (int rep = 0; rep < 5; ++rep) {
    table.Add(rep);
  }
  CHECK(table.kept_reps() == 3);  // Repetitions 0, 2, 4.
  for (int rep = 5; rep < 17; ++rep) {
    table.Add(rep);
  }
  CHECK(table.full_cycles() == 17 && table.kept_reps() == 3);  // 0, 8, 16.
  CHECK(Near(table.Estimates(1)[0], 8.0));
}

perfbench::SpanInput Span(const char* name, uint64_t start, uint64_t duration, uint16_t depth,
                          uint32_t thread = 0) {
  perfbench::SpanInput span;
  span.name = name;
  span.start_ns = start;
  span.duration_ns = duration;
  span.depth = depth;
  span.thread = thread;
  return span;
}

int Find(const std::vector<perfbench::SpanNode>& tree, const char* name, uint32_t thread = 0) {
  for (size_t i = 0; i < tree.size(); ++i) {
    if (tree[i].span.name == name && tree[i].span.thread == thread) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void TestSelfTimeFromNestedSpans() {
  // op [0,100) holds cycle [10,90), which holds two draws and a nested
  // draw-of-a-draw; a second thread's span overlaps but is not a child.
  std::vector<perfbench::SpanInput> spans = {
      Span("update.TextView", 20, 30, 2),   // Completion order: children
      Span("update.Inner", 55, 5, 3),       // close before parents.
      Span("update.TableView", 50, 20, 2),
      Span("im.update.cycle", 10, 80, 1),
      Span("op", 0, 100, 0),
      Span("other", 5, 50, 0, 1),
      Span("op.next", 100, 10, 0),          // Starts as op ends: a sibling.
  };
  std::vector<perfbench::SpanNode> tree = perfbench::BuildSpanTree(spans);
  int op = Find(tree, "op");
  int cycle = Find(tree, "im.update.cycle");
  int table = Find(tree, "update.TableView");
  int inner = Find(tree, "update.Inner");
  int next = Find(tree, "op.next");
  int other = Find(tree, "other", 1);
  CHECK(op >= 0 && cycle >= 0 && table >= 0 && inner >= 0 && next >= 0 && other >= 0);
  CHECK(tree[cycle].parent == op);
  CHECK(tree[inner].parent == table);
  CHECK(tree[next].parent == -1);
  CHECK(tree[other].parent == -1);
  CHECK(tree[op].self_ns == 20);     // 100 - 80
  CHECK(tree[cycle].self_ns == 30);  // 80 - 30 - 20
  CHECK(tree[table].self_ns == 15);  // 20 - 5
  CHECK(tree[inner].self_ns == 5);
  // The update.* family of the cycle's children: 30 + 15 + 5.
  uint64_t draws = 0;
  for (int child : tree[cycle].children) {
    draws += perfbench::FamilySelfNs(tree, child, "update.");
  }
  CHECK(draws == 50);
  // A family that excludes the children leaves plain self time.
  CHECK(perfbench::FamilySelfNs(tree, cycle, "server.") == 30);
  CHECK(perfbench::FamilySelfNs(tree, op, "im.") == 50);  // 20 + 30
}

void TestFailRatioFromTagCounts() {
  // Tag [b] landed inside tag [a]; [c] was applied twice; [d] never arrived.
  bool malformed = true;
  std::map<std::string, int> counts =
      perfbench::CountTags("xx[a[b]]yy[c]zz[c]w", '[', ']', &malformed);
  CHECK(!malformed);
  CHECK(counts["a"] == 1);
  CHECK(counts["b"] == 1);
  CHECK(counts["c"] == 2);
  perfbench::TagCensus census = perfbench::CensusOf(counts, {"a", "b", "c", "d"});
  CHECK(census.submitted == 4);
  CHECK(census.lost == 1);
  CHECK(census.duplicated == 1);
  CHECK(Near(census.fail_ratio(), 0.5));
  perfbench::CountTags("[a]]", '[', ']', &malformed);
  CHECK(malformed);
  perfbench::CountTags("[a", '[', ']', &malformed);
  CHECK(malformed);
  CHECK(perfbench::CensusOf({}, {}).fail_ratio() == 0.0);
}

}  // namespace

int main() {
  TestPercentileCarriesSampleCount();
  TestCycleTableCorrectsSlowStretches();
  TestCycleTableKeepsRepetitionsSpreadOut();
  TestSelfTimeFromNestedSpans();
  TestFailRatioFromTagCounts();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all stats checks passed\n");
  return 0;
}
