// atk_perfbench --workload <keystroke|open|collab|mail> --seed <n>
//               --seconds <s> --trace <0|1>
//
// Runs one workload and prints its metrics, the last line being the JSON
// result described in perfbench/README.md.  Normally started through
// perfbench/run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload.empty() || seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: %s --workload <keystroke|open|collab|mail> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  return perfbench::RunBenchmark(workload, seed, seconds, trace);
}
