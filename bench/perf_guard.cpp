// Perf-regression guard (ctest entry perf_guard, label "perf").
//
//   perf_guard [BUILD_DIR] [GATE_FILE]
//
// Evaluates every gate in GATE_FILE (default bench/perf_baseline.json) on
// the benches under BUILD_DIR/bench (default build), by the run rules in
// perf_gates.h.  Exits 0 when every group passes, 1 otherwise, and 77
// (ctest's SKIP_RETURN_CODE) when ATK_SKIP_PERF=1.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/perf_gates.h"

namespace {

// Runs a shell command and returns its stdout (stderr is discarded by the
// command itself).
std::string RunCommand(const std::string& command) {
  std::string output;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return output;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output.append(buf, n);
  }
  pclose(pipe);
  return output;
}

}  // namespace

int main(int argc, char** argv) {
  const char* skip = std::getenv("ATK_SKIP_PERF");
  if (skip != nullptr && std::strcmp(skip, "1") == 0) {
    std::fprintf(stderr, "perf_guard: ATK_SKIP_PERF=1, skipping perf guard\n");
    return 77;
  }
  std::string build_dir = argc > 1 ? argv[1] : "build";
  std::string gate_path = argc > 2 ? argv[2] : "bench/perf_baseline.json";

  std::ifstream file(gate_path);
  std::stringstream text;
  text << file.rdbuf();
  std::vector<atk_bench::Gate> gates;
  std::string error = "cannot read it";
  if (!file || !atk_bench::ParseGateFile(text.str(), &gates, &error)) {
    std::fprintf(stderr, "perf_guard: bad gate file %s: %s\n", gate_path.c_str(),
                 error.c_str());
    return 1;
  }

  int failures = 0;
  for (const atk_bench::GateGroup& group : atk_bench::GroupGates(gates)) {
    std::string bin = build_dir + "/bench/" + group.bench;
    if (access(bin.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "perf_guard: missing bench binary %s (build the project first)\n",
                   bin.c_str());
      ++failures;
      continue;
    }
    std::string command = "'" + bin + "'";
    for (const std::string& arg : atk_bench::BenchArguments(group)) {
      command += " '" + arg + "'";
    }
    command += " 2>/dev/null";
    std::string log;
    if (!atk_bench::RunGroup(group, [&] { return RunCommand(command); }, &log)) {
      ++failures;
    }
    std::fputs(log.c_str(), stderr);
  }
  if (failures > 0) {
    std::fprintf(stderr, "perf_guard: FAIL: %d gate group(s) out of bounds\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perf_guard: PASS\n");
  return 0;
}
