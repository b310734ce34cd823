#!/usr/bin/env python3
"""Builds the toolkit benchmark and runs one workload.

    python3 perfbench/run.py --workload <keystroke|open|collab|mail>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root.  The benchmark binary is built from source
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr.  The harness's unit tests run after every build.

A single workload prints a metric table and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The metric names are
checked against BENCHMARK.json.  `--workload all` runs every workload
untraced and traced and ends with one JSON line holding all eight results.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["keystroke", "open", "collab", "mail"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns its build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "base", "CMakeLists.txt")):
        fail("toolkit sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    steps.append([os.path.join(out, "perfbench_stats_test")])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("step failed: " + " ".join(step))
    return out


def declared_metrics(trace):
    """Names BENCHMARK.json declares for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as spec_file:
        spec = json.load(spec_file)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace):
    """Runs the benchmark binary once; echoes its output, returns the parsed result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ATK_")}
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                          cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        fail("atk_perfbench exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("atk_perfbench did not end with a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has keys %s" % sorted(result))
    declared = declared_metrics(trace)
    if declared is not None and sorted(result["metrics"]) != sorted(declared):
        fail("metrics %s differ from BENCHMARK.json's %s" %
             (sorted(result["metrics"]), sorted(declared)))
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = os.path.join(build(), "atk_perfbench")
    if args.workload != "all":
        lines, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                     args.trace == 1)
        print("\n".join(lines))
        print(json.dumps(result))
        return
    results = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            lines, result = run_workload(binary, workload, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            results["%s/trace%d" % (workload, int(trace))] = result
    print(json.dumps(results))


if __name__ == "__main__":
    main()
