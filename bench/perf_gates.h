// Perf gates: one declarative line per bound, evaluated over metric lines.
//
// Benchmark-free on purpose, like metric_lines.h: perf_guard.cpp runs the
// benches through this header, and tests/test_perf_gates.cc feeds it canned
// lines and the committed gate file.
//
// A gate is one object in the "gates" array of bench/perf_baseline.json:
//
//   {"bench": "bench_server", "filter": "BM_EditFanOut/256",
//    "lhs": "BM_EditFanOut/256", "op": "<=", "const": 800000, "factor": 1.2,
//    "why": "..."}
//
// It holds when  value(lhs) op factor * (value(rhs) or const), with op one
// of <= >= < > and factor 1 when absent.  Metric names are the `metric`
// field of the {"bench":...} lines a bench prints: a benchmark name (its
// time, in the benchmark's unit), its `_median` aggregate, or a snapshot
// metric such as gauge/<name> or histogram/<name>/p99.
//
// The run rules are fixed:
//   - gates that share (bench, filter) form a group, run as
//     build/bench/<bench> --benchmark_filter=^(<filter>)$;
//   - a group passes when all of its gates hold on the same attempt, and
//     gets up to kGateAttempts attempts;
//   - a group naming a `_median` metric runs 5 randomly interleaved
//     repetitions; every other group runs once;
//   - a metric missing from the run fails its gate.
//
// Re-record a const by running bench/run_all.sh and copying the new
// measurement, with the headroom its `why` states, into the gate line.

#ifndef ATK_BENCH_PERF_GATES_H_
#define ATK_BENCH_PERF_GATES_H_

#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tests/test_json.h"

namespace atk_bench {

using atk::testjson::JsonValue;

constexpr int kGateAttempts = 3;

struct Gate {
  std::string bench;
  std::string filter;
  std::string lhs;
  std::string op;
  std::string rhs;  // Empty when the gate compares against `constant`.
  double constant = 0.0;
  double factor = 1.0;
  std::string why;
};

struct GateGroup {
  std::string bench;
  std::string filter;
  std::vector<Gate> gates;
};

using MetricMap = std::map<std::string, double>;

// Parses one gate object.  An unknown or mistyped field, a missing field, an
// unknown op and both or neither of rhs/const are errors, so a typo in the
// gate file fails the guard instead of silently dropping a bound.
inline bool ParseGate(const JsonValue& value, Gate* gate, std::string* error) {
  std::map<std::string, std::string*> strings = {
      {"bench", &gate->bench}, {"filter", &gate->filter}, {"lhs", &gate->lhs},
      {"op", &gate->op},       {"rhs", &gate->rhs},       {"why", &gate->why}};
  std::map<std::string, double*> numbers = {{"const", &gate->constant},
                                            {"factor", &gate->factor}};
  for (const auto& [key, member] : value.members) {
    if (strings.count(key) != 0 && member.kind == JsonValue::Kind::kString) {
      *strings[key] = member.str;
    } else if (numbers.count(key) != 0 && member.kind == JsonValue::Kind::kNumber) {
      *numbers[key] = member.number;
    } else {
      *error = "unknown or mistyped field \"" + key + "\"";
      return false;
    }
  }
  if (value.kind != JsonValue::Kind::kObject || gate->bench.empty() ||
      gate->filter.empty() || gate->lhs.empty() || gate->why.empty()) {
    *error = "not an object with bench, filter, lhs and why";
  } else if ((value.Get("rhs") == nullptr) == (value.Get("const") == nullptr)) {
    *error = "needs exactly one of \"rhs\" and \"const\"";
  } else if (gate->op != "<=" && gate->op != ">=" && gate->op != "<" && gate->op != ">") {
    *error = "unknown op \"" + gate->op + "\"";
  } else if ((gate->bench + gate->filter).find('\'') != std::string::npos) {
    // bench and filter reach a shell command line inside single quotes.
    *error = "bench and filter must not contain a single quote";
  } else {
    return true;
  }
  return false;
}

// Parses a whole gate file: {"gates": [ ... ]}.
inline bool ParseGateFile(std::string_view text, std::vector<Gate>* gates,
                          std::string* error) {
  JsonValue root;
  if (!atk::testjson::ParseJson(text, &root) || root.members.size() != 1 ||
      root.Get("gates") == nullptr || root.Get("gates")->kind != JsonValue::Kind::kArray) {
    *error = "not a JSON object holding only a \"gates\" array";
    return false;
  }
  for (const JsonValue& item : root.Get("gates")->items) {
    Gate gate;
    if (!ParseGate(item, &gate, error)) {
      *error = "gate " + std::to_string(gates->size() + 1) + ": " + *error;
      return false;
    }
    gates->push_back(gate);
  }
  return true;
}

// Collects the {"bench":...} lines of one bench run.  The first line for a
// metric wins, so a repeated benchmark reports its first repetition under
// its own name and its aggregates under the _median/_mean names.
inline MetricMap ParseMetricLines(const std::string& output) {
  MetricMap metrics;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    size_t start = line.find("{\"bench\":");
    JsonValue value;
    if (start != std::string::npos &&
        atk::testjson::ParseJson(std::string_view(line).substr(start), &value) &&
        value.Get("metric") != nullptr && value.Get("value") != nullptr) {
      metrics.emplace(value.Get("metric")->str, value.Get("value")->number);
    }
  }
  return metrics;
}

// Evaluates one gate over one run's metrics and describes the comparison in
// *detail.  A metric the run did not print fails the gate.
inline bool EvaluateGate(const Gate& gate, const MetricMap& metrics, std::string* detail) {
  auto lhs = metrics.find(gate.lhs);
  auto rhs = metrics.find(gate.rhs);
  if (lhs == metrics.end() || (!gate.rhs.empty() && rhs == metrics.end())) {
    *detail = "no measurement for " + (lhs == metrics.end() ? gate.lhs : gate.rhs);
    return false;
  }
  double base = gate.rhs.empty() ? gate.constant : rhs->second;
  double bound = gate.factor * base;
  double value = lhs->second;
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s = %g (need %s %g x %s%g = %g)", gate.lhs.c_str(),
                value, gate.op.c_str(), gate.factor,
                gate.rhs.empty() ? "" : (gate.rhs + " ").c_str(), base, bound);
  *detail = buf;
  return gate.op == "<=" ? value <= bound
         : gate.op == ">=" ? value >= bound
         : gate.op == "<"  ? value < bound
                           : value > bound;
}

// Groups gates by (bench, filter), in the order the groups first appear.
inline std::vector<GateGroup> GroupGates(const std::vector<Gate>& gates) {
  std::vector<GateGroup> groups;
  for (const Gate& gate : gates) {
    auto it = groups.begin();
    while (it != groups.end() && (it->bench != gate.bench || it->filter != gate.filter)) {
      ++it;
    }
    if (it == groups.end()) {
      it = groups.insert(it, GateGroup{gate.bench, gate.filter, {}});
    }
    it->gates.push_back(gate);
  }
  return groups;
}

// The bench arguments for one run of the group: repetitions only when a
// gate names a `_median` aggregate.
inline std::vector<std::string> BenchArguments(const GateGroup& group) {
  std::vector<std::string> args = {"--benchmark_filter=^(" + group.filter + ")$",
                                   "--benchmark_min_time=0.05"};
  auto is_median = [](const std::string& name) {
    return name.size() > 7 && name.compare(name.size() - 7, 7, "_median") == 0;
  };
  for (const Gate& gate : group.gates) {
    if (is_median(gate.lhs) || is_median(gate.rhs)) {
      args.push_back("--benchmark_repetitions=5");
      args.push_back("--benchmark_enable_random_interleaving=true");
      break;
    }
  }
  return args;
}

// Runs the group up to kGateAttempts times through `run`, which returns one
// bench run's output, and passes on the first attempt where every gate
// holds.  Appends one line per gate and attempt to *log.
inline bool RunGroup(const GateGroup& group, const std::function<std::string()>& run,
                     std::string* log) {
  for (int attempt = 1; attempt <= kGateAttempts; ++attempt) {
    MetricMap metrics = ParseMetricLines(run());
    bool all_hold = true;
    for (const Gate& gate : group.gates) {
      std::string detail;
      bool holds = EvaluateGate(gate, metrics, &detail);
      all_hold = all_hold && holds;
      *log += "perf_guard: " + group.bench + " attempt " + std::to_string(attempt) + ": " +
              detail + (holds ? " ok\n" : " FAIL\n");
    }
    if (all_hold) {
      return true;
    }
  }
  *log += "perf_guard: FAIL: " + group.bench + " ^(" + group.filter + ")$ after " +
          std::to_string(kGateAttempts) + " attempts\n";
  return false;
}

}  // namespace atk_bench

#endif  // ATK_BENCH_PERF_GATES_H_
