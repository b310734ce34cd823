// The perf gate evaluator (bench/perf_gates.h) on canned metric lines, and
// the committed gate file it runs in perf_guard.
//
// CI skips the perf guard itself (ATK_SKIP_PERF=1), so this tier-1 suite is
// what keeps a malformed gate line, a gate on a bench that does not exist or
// a dropped bound from going unnoticed there.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/perf_gates.h"

namespace atk_bench {
namespace {

std::string MetricLine(const std::string& metric, double value) {
  std::ostringstream line;
  line << "{\"bench\":\"bench_x\",\"metric\":\"" << metric << "\",\"value\":" << value
       << ",\"unit\":\"ns\",\"iterations\":1}\n";
  return line.str();
}

Gate ParseOne(const std::string& json) {
  std::vector<Gate> gates;
  std::string error;
  EXPECT_TRUE(ParseGateFile("{\"gates\": [" + json + "]}", &gates, &error)) << error;
  return gates.empty() ? Gate{} : gates[0];
}

bool Holds(const std::string& json, const MetricMap& metrics) {
  std::string detail;
  return EvaluateGate(ParseOne(json), metrics, &detail);
}

TEST(PerfGates, EveryOpAgainstConstAndMetricWithFactor) {
  const MetricMap metrics = {{"a", 10}, {"b", 5}};
  const std::string head = R"("bench":"bench_x","filter":"f","lhs":"a","why":"w",)";
  struct Case {
    const char* tail;
    bool holds;
  };
  const Case cases[] = {
      {R"("op":"<=","const":10)", true},   {R"("op":"<","const":10)", false},
      {R"("op":">=","const":10)", true},   {R"("op":">","const":10)", false},
      {R"("op":">","const":9.5)", true},   {R"("op":"<","const":10.5)", true},
      {R"("op":"<=","const":8,"factor":1.2)", false},
      {R"("op":"<=","const":9,"factor":1.2)", true},
      {R"("op":">=","rhs":"b","factor":2)", true},
      {R"("op":">","rhs":"b","factor":2)", false},
      {R"("op":"<","rhs":"b","factor":2.1)", true},
      {R"("op":"<=","rhs":"b","factor":1.5)", false},
      {R"("op":">","rhs":"b")", true},
      {R"("op":"<=","rhs":"b")", false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Holds("{" + head + c.tail + "}", metrics), c.holds) << c.tail;
  }
}

TEST(PerfGates, MissingMetricFailsTheGate) {
  const MetricMap metrics = {{"a", 10}};
  std::string detail;
  Gate no_lhs = ParseOne(
      R"({"bench":"bench_x","filter":"f","lhs":"gone","op":">=","const":0,"why":"w"})");
  EXPECT_FALSE(EvaluateGate(no_lhs, metrics, &detail));
  EXPECT_NE(detail.find("no measurement for gone"), std::string::npos) << detail;
  Gate no_rhs = ParseOne(
      R"({"bench":"bench_x","filter":"f","lhs":"a","op":">=","rhs":"gone","why":"w"})");
  EXPECT_FALSE(EvaluateGate(no_rhs, metrics, &detail));
  EXPECT_FALSE(EvaluateGate(no_lhs, MetricMap{}, &detail));
}

TEST(PerfGates, MalformedGateLinesAreRejected) {
  const std::string ok = R"("bench":"bench_x","filter":"f","lhs":"a","why":"w")";
  const std::string bad[] = {
      "{" + ok + R"(,"op":"==","const":1})",                // unknown op
      "{" + ok + R"(,"op":"<=","const":1,"rhs":"b"})",      // both bounds
      "{" + ok + R"(,"op":"<="})",                          // no bound
      "{" + ok + R"(,"op":"<=","const":"1"})",              // mistyped const
      "{" + ok + R"(,"op":"<=","const":1,"facter":2})",     // unknown field
      R"({"bench":"bench_x","lhs":"a","op":"<=","const":1,"why":"w"})",  // no filter
      R"({"bench":"bench_x","filter":"f","lhs":"a","op":"<=","const":1,"why":""})",
      R"({"bench":"bench_x","filter":"f'; rm x'","lhs":"a","op":"<=","const":1,"why":"w"})",
      R"(["bench_x"])",
  };
  for (const std::string& line : bad) {
    std::vector<Gate> gates;
    std::string error;
    EXPECT_FALSE(ParseGateFile("{\"gates\": [" + line + "]}", &gates, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
  std::vector<Gate> gates;
  std::string error;
  const std::string good = "{" + ok + R"(,"op":"<=","const":1})";
  EXPECT_TRUE(ParseGateFile("{\"gates\": [" + good + "]}", &gates, &error)) << error;
  EXPECT_FALSE(ParseGateFile("{\"gates\": [" + good + ",]}", &gates, &error));
  EXPECT_FALSE(ParseGateFile("{\"gates\": [], \"comment\": \"x\"}", &gates, &error));
}

TEST(PerfGates, MetricLinesKeepTheFirstValueAndSkipNoise) {
  MetricMap metrics = ParseMetricLines(
      "BM_A/1   1234 ns   1230 ns   100\n" + MetricLine("BM_A/1", 7) +
      MetricLine("BM_A/1", 9) + "console noise " + MetricLine("gauge/x", 3) +
      "{\"bench\":\"bench_x\",\"metric\":\"torn\"\n");
  EXPECT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics["BM_A/1"], 7);
  EXPECT_EQ(metrics["gauge/x"], 3);
}

TEST(PerfGates, GroupPassesOnlyWhenAllGatesHoldOnOneAttempt) {
  const std::string a_ok = MetricLine("a", 1);
  const std::string a_bad = MetricLine("a", 100);
  const std::string b_ok = MetricLine("b", 1);
  const std::string b_bad = MetricLine("b", 100);
  std::vector<GateGroup> groups = GroupGates(
      {ParseOne(R"({"bench":"bench_x","filter":"f","lhs":"a","op":"<=","const":10,"why":"w"})"),
       ParseOne(R"({"bench":"bench_x","filter":"f","lhs":"b","op":"<=","const":10,"why":"w"})")});
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].gates.size(), 2u);

  auto run_with = [&](std::vector<std::string> outputs, int* runs) {
    std::string log;
    bool passed = RunGroup(groups[0], [&] { return outputs[(*runs)++]; }, &log);
    EXPECT_FALSE(log.empty());
    return passed;
  };
  // Each gate holds on some attempt, but never both on the same one.
  int runs = 0;
  EXPECT_FALSE(run_with({a_ok + b_bad, a_bad + b_ok, a_ok + b_bad}, &runs));
  EXPECT_EQ(runs, kGateAttempts);
  runs = 0;
  EXPECT_TRUE(run_with({a_ok + b_bad, a_bad + b_ok, a_ok + b_ok}, &runs));
  EXPECT_EQ(runs, 3);
  runs = 0;
  EXPECT_TRUE(run_with({a_ok + b_ok}, &runs));
  EXPECT_EQ(runs, 1);
}

TEST(PerfGates, GroupsFollowBenchAndFilter) {
  const std::string tail = R"("lhs":"a","op":"<=","const":1,"why":"w"})";
  std::vector<GateGroup> groups = GroupGates({
      ParseOne(R"({"bench":"bench_x","filter":"f",)" + tail),
      ParseOne(R"({"bench":"bench_y","filter":"f",)" + tail),
      ParseOne(R"({"bench":"bench_x","filter":"g",)" + tail),
      ParseOne(R"({"bench":"bench_x","filter":"f",)" + tail),
  });
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].gates.size(), 2u);
  EXPECT_EQ(groups[1].bench, "bench_y");
  EXPECT_EQ(groups[2].filter, "g");
}

TEST(PerfGates, MedianNamesSelectTheRepetitionRule) {
  auto args_of = [](const std::string& lhs, const std::string& rhs) {
    GateGroup group{"bench_x", "BM_A/1|BM_B/1", {}};
    group.gates.push_back(ParseOne(R"({"bench":"bench_x","filter":"BM_A/1|BM_B/1","lhs":")" +
                                   lhs + R"(","op":"<=","rhs":")" + rhs +
                                   R"(","why":"w"})"));
    std::vector<std::string> args = BenchArguments(group);
    std::string joined;
    for (const std::string& arg : args) {
      joined += arg + " ";
    }
    return joined;
  };
  std::string plain = args_of("BM_A/1", "BM_B/1");
  EXPECT_NE(plain.find("--benchmark_filter=^(BM_A/1|BM_B/1)$ "), std::string::npos);
  EXPECT_NE(plain.find("--benchmark_min_time=0.05 "), std::string::npos);
  EXPECT_EQ(plain.find("repetitions"), std::string::npos);
  for (std::string median : {args_of("BM_A/1_median", "BM_B/1"),
                             args_of("BM_A/1", "BM_B/1_median")}) {
    EXPECT_NE(median.find("--benchmark_repetitions=5 "), std::string::npos);
    EXPECT_NE(median.find("--benchmark_enable_random_interleaving=true "),
              std::string::npos);
  }
  EXPECT_EQ(args_of("BM_A/1_mean", "median").find("repetitions"), std::string::npos);
}

// The committed gate file parses, names only benches that exist, and holds
// every check the shell guard it replaced made: 13 absolute times, 8 gauge
// floors and caps, the read speedup, the three-way traced check and the two
// accountant twins.  The four byte gates share the run of the time gate with
// the same filter, so the 25 old checks run as 21 groups.  The burst
// frames-per-edit cap is a ninth gauge gate and a 22nd group.
TEST(PerfGates, CommittedGateFileHoldsEveryCheck) {
  const std::filesystem::path root = ATK_SOURCE_DIR;
  std::ifstream file(root / "bench" / "perf_baseline.json");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  std::vector<Gate> gates;
  std::string error;
  ASSERT_TRUE(ParseGateFile(text.str(), &gates, &error)) << error;

  int absolute = 0, rate = 0, speedup = 0, traced = 0, twins = 0;
  for (const Gate& gate : gates) {
    EXPECT_EQ(gate.bench.rfind("bench_", 0), 0u) << gate.bench;
    EXPECT_TRUE(std::filesystem::exists(root / "bench" / (gate.bench + ".cpp"))) << gate.bench;
    if (gate.filter == "BM_EditFanOut(_Traced)?/256") {
      ++traced;
    } else if (gate.rhs.find("_median") != std::string::npos) {
      ++twins;
      EXPECT_EQ(gate.factor, 1.02);
    } else if (!gate.rhs.empty()) {
      ++speedup;
      EXPECT_EQ(gate.factor, 3);
    } else if (gate.lhs.rfind("gauge/", 0) == 0) {
      ++rate;
      EXPECT_EQ(gate.factor, 1);
    } else {
      ++absolute;
      EXPECT_EQ(gate.lhs, gate.filter);
      EXPECT_EQ(gate.op, "<=");
      EXPECT_EQ(gate.factor, 1.2);
    }
  }
  EXPECT_EQ(absolute, 16);
  EXPECT_EQ(rate, 9);
  EXPECT_EQ(speedup, 1);
  EXPECT_EQ(traced, 3);
  EXPECT_EQ(twins, 2);
  EXPECT_EQ(GroupGates(gates).size(), 25u);
}

}  // namespace
}  // namespace atk_bench
