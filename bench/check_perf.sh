#!/bin/sh
# Perf-regression guard (ctest label "perf").
#
#   bench/check_perf.sh [BUILD_DIR] [BASELINE]
#
# Replays every metric listed in bench/perf_baseline.json (one line per
# entry: metric name, bench binary, reference value_ns derived from
# BENCH_RESULTS.json on the recording machine) and fails when a metric is
# more than 20% slower than its baseline.  Benchmarks are noisy on loaded
# machines, so up to 3 attempts are made per metric and any single run
# within the limit passes.
#
# On top of the absolute limits, ratios are pinned:
#   - the zero-copy read path (BM_ReadDocumentBySize/256) must stay at least
#     3x faster than the frozen copying lexer
#     (BM_ReadDocumentBySize_Baseline/256) measured in the same session —
#     the PR-5 acceptance floor;
#   - the per-edit fan-out p99 with tracing enabled
#     (gauge/server.bench.fanout_traced_p99_us) must stay within +3% of the
#     untraced p99 measured in the same session, and the traced run must
#     close its edit flows with a sane end-to-end propagation p99
#     (histogram/server.propagation.latency_us/p99) — the PR-7 tracing
#     overhead bound.  The disabled path is a single branch, so the plain
#     BM_EditFanOut entry doubles as the 0%-when-disabled guard;
#   - the memory accountant (PR 9) must cost at most 2%: the accounted
#     document read (BM_ReadDocumentBySize/256) and edit fan-out
#     (BM_EditFanOut/256) are each held within 1.02x of their _Unaccounted
#     twins measured in the same session (medians of 5 interleaved
#     repetitions).
#
# The PR-9 byte gates ride on the `rates` mechanism: the accounted runs
# publish gauge/datastream.bench.doc_peak_bytes (peak accounted bytes one
# 256-paragraph decode adds) and gauge/server.bench.session_peak_bytes
# (peak fleet bytes per session over the fan-out run); the baseline floors
# them (accounting must actually be on) and caps them (a pool that stops
# releasing shows up as a ceiling breach, not a slow drift).
#
# The baseline's `rates` entries gate the scenario suite (bench_scenarios):
# each names a gauge from the metrics snapshot, the bench filter that
# populates it, and a `min` (throughput floor: lines/sec ingested, docs/sec
# round-tripped) or `max` (latency ceiling: replay fan-out p99).  The
# recorded bounds already carry loaded-machine headroom, so they are applied
# without extra slack — with the usual 3 attempts.
#
# ATK_SKIP_PERF=1 skips (exit 77, ctest's SKIP_RETURN_CODE).
set -eu

if [ "${ATK_SKIP_PERF:-0}" = "1" ]; then
  echo "check_perf.sh: ATK_SKIP_PERF=1, skipping perf guard" >&2
  exit 77
fi

BUILD_DIR="${1:-build}"
BASELINE="${2:-$(dirname "$0")/perf_baseline.json}"

if [ ! -f "$BASELINE" ]; then
  echo "check_perf.sh: missing baseline $BASELINE" >&2
  exit 1
fi

# Runs one benchmark and prints its value_ns (empty on failure to measure).
measure() {
  bin="$1"
  metric="$2"
  "$bin" --benchmark_filter="^${metric}\$" \
      --benchmark_min_time=0.05 --benchmark_color=false 2>/dev/null \
    | grep -o '{"bench":.*}' \
    | grep -F "\"metric\":\"$metric\"" \
    | head -1 \
    | grep -o '"value":[0-9.eE+-]*' | head -1 | cut -d: -f2
}

# Runs the bench filtered to `filter` and prints the value of a named gauge
# from the end-of-run metrics snapshot (empty on failure to measure).
measure_gauge() {
  bin="$1"
  filter="$2"
  gauge_name="$3"
  "$bin" --benchmark_filter="^${filter}\$" \
      --benchmark_min_time=0.05 --benchmark_color=false 2>/dev/null \
    | grep -o '{"bench":.*}' \
    | grep -F "\"metric\":\"gauge/$gauge_name\"" \
    | head -1 \
    | grep -o '"value":[0-9.eE+-]*' | head -1 | cut -d: -f2
}

# One scenario gauge against its recorded floor (min) or ceiling (max).
check_rate() {
  gauge_name="$1"
  bench="$2"
  filter="$3"
  min="$4"
  max="$5"
  bin="$BUILD_DIR/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "check_perf.sh: missing bench binary $bin (build the project first)" >&2
    return 1
  fi
  attempt=1
  while [ "$attempt" -le 3 ]; do
    value="$(measure_gauge "$bin" "$filter" "$gauge_name")"
    if [ -z "$value" ]; then
      echo "check_perf.sh: attempt $attempt produced no measurement for gauge $gauge_name" >&2
      attempt=$((attempt + 1))
      continue
    fi
    bound="$([ -n "$min" ] && echo "min $min" || echo "max $max")"
    echo "check_perf.sh: attempt $attempt: gauge/$gauge_name = ${value} (need $bound)" >&2
    if [ -n "$min" ]; then
      if awk -v v="$value" -v lim="$min" 'BEGIN { exit !(v >= lim) }'; then
        return 0
      fi
    elif awk -v v="$value" -v lim="$max" 'BEGIN { exit !(v <= lim) }'; then
      return 0
    fi
    attempt=$((attempt + 1))
  done
  echo "check_perf.sh: FAIL: gauge/$gauge_name out of bounds after 3 attempts" >&2
  return 1
}

# One metric against its absolute baseline, with retries.
check_metric() {
  metric="$1"
  bench="$2"
  base_ns="$3"
  bin="$BUILD_DIR/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "check_perf.sh: missing bench binary $bin (build the project first)" >&2
    return 1
  fi
  limit_ns="$(awk -v b="$base_ns" 'BEGIN { printf "%.0f", b * 1.2 }')"
  attempt=1
  while [ "$attempt" -le 3 ]; do
    value="$(measure "$bin" "$metric")"
    if [ -z "$value" ]; then
      echo "check_perf.sh: attempt $attempt produced no measurement for $metric" >&2
      attempt=$((attempt + 1))
      continue
    fi
    echo "check_perf.sh: attempt $attempt: $metric = ${value} ns (limit ${limit_ns} ns," \
      "baseline ${base_ns} ns)" >&2
    if awk -v v="$value" -v lim="$limit_ns" 'BEGIN { exit !(v <= lim) }'; then
      return 0
    fi
    attempt=$((attempt + 1))
  done
  echo "check_perf.sh: FAIL: $metric regressed >20% vs baseline after 3 attempts" >&2
  return 1
}

failures=0
# Baseline entries are one per line: pull metric/bench/value_ns with sed so
# the guard has no dependency beyond POSIX sh + awk.
while IFS= read -r line; do
  case "$line" in
    *'"metric"'*) ;;
    *) continue ;;
  esac
  metric="$(printf '%s\n' "$line" | sed 's/.*"metric"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/')"
  bench="$(printf '%s\n' "$line" | sed 's/.*"bench"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/')"
  base_ns="$(printf '%s\n' "$line" | sed 's/.*"value_ns"[[:space:]]*:[[:space:]]*\([0-9.eE+-]*\).*/\1/')"
  if [ -z "$metric" ] || [ -z "$bench" ] || [ -z "$base_ns" ]; then
    echo "check_perf.sh: malformed baseline entry: $line" >&2
    failures=$((failures + 1))
    continue
  fi
  check_metric "$metric" "$bench" "$base_ns" || failures=$((failures + 1))
done < "$BASELINE"

# Scenario-suite rate gates: one `rates` entry per line, each naming a gauge
# plus the benchmark filter that populates it and a min or max bound.
while IFS= read -r line; do
  case "$line" in
    *'"gauge"'*) ;;
    *) continue ;;
  esac
  gauge_name="$(printf '%s\n' "$line" | sed 's/.*"gauge"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/')"
  bench="$(printf '%s\n' "$line" | sed 's/.*"bench"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/')"
  filter="$(printf '%s\n' "$line" | sed 's/.*"filter"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/')"
  min="$(printf '%s\n' "$line" | sed -n 's/.*"min"[[:space:]]*:[[:space:]]*\([0-9.eE+-]*\).*/\1/p')"
  max="$(printf '%s\n' "$line" | sed -n 's/.*"max"[[:space:]]*:[[:space:]]*\([0-9.eE+-]*\).*/\1/p')"
  if [ -z "$gauge_name" ] || [ -z "$bench" ] || [ -z "$filter" ] ||
     { [ -z "$min" ] && [ -z "$max" ]; }; then
    echo "check_perf.sh: malformed rates entry: $line" >&2
    failures=$((failures + 1))
    continue
  fi
  check_rate "$gauge_name" "$bench" "$filter" "$min" "$max" || failures=$((failures + 1))
done < "$BASELINE"

# The PR-5 speedup floor: zero-copy read >= 3x the frozen copying lexer.
DS_BIN="$BUILD_DIR/bench/bench_datastream"
if [ -x "$DS_BIN" ]; then
  ratio_ok=0
  attempt=1
  while [ "$attempt" -le 3 ]; do
    new_ns="$(measure "$DS_BIN" "BM_ReadDocumentBySize/256")"
    old_ns="$(measure "$DS_BIN" "BM_ReadDocumentBySize_Baseline/256")"
    if [ -n "$new_ns" ] && [ -n "$old_ns" ]; then
      ratio="$(awk -v o="$old_ns" -v n="$new_ns" 'BEGIN { printf "%.2f", o / n }')"
      echo "check_perf.sh: attempt $attempt: read speedup ${ratio}x" \
        "(zero-copy ${new_ns} ns vs copying baseline ${old_ns} ns, need >= 3x)" >&2
      if awk -v o="$old_ns" -v n="$new_ns" 'BEGIN { exit !(o >= 3 * n) }'; then
        ratio_ok=1
        break
      fi
    else
      echo "check_perf.sh: attempt $attempt could not measure the read speedup" >&2
    fi
    attempt=$((attempt + 1))
  done
  if [ "$ratio_ok" != "1" ]; then
    echo "check_perf.sh: FAIL: zero-copy read under 3x the copying baseline after 3 attempts" >&2
    failures=$((failures + 1))
  fi
else
  echo "check_perf.sh: missing bench binary $DS_BIN (build the project first)" >&2
  failures=$((failures + 1))
fi

# The PR-7 tracing bound: one session runs the untraced and the traced
# fan-out loops back to back; the traced per-edit p99 must stay within +3%
# of the untraced one, and the traced loop must have closed its edit flows
# into the end-to-end propagation histogram with a sane p99 (the idle
# measurement is ~0.5-1 ms; 20 ms leaves loaded-machine headroom).
SV_BIN="$BUILD_DIR/bench/bench_server"
if [ -x "$SV_BIN" ]; then
  trace_ok=0
  attempt=1
  while [ "$attempt" -le 3 ]; do
    out="$("$SV_BIN" --benchmark_filter='^BM_EditFanOut(_Traced)?/256$' \
        --benchmark_min_time=0.05 --benchmark_color=false 2>/dev/null \
      | grep -o '{"bench":.*}')" || out=""
    plain_us="$(printf '%s\n' "$out" \
      | grep -F '"metric":"gauge/server.bench.fanout_p99_us"' | head -1 \
      | grep -o '"value":[0-9.eE+-]*' | cut -d: -f2)"
    traced_us="$(printf '%s\n' "$out" \
      | grep -F '"metric":"gauge/server.bench.fanout_traced_p99_us"' | head -1 \
      | grep -o '"value":[0-9.eE+-]*' | cut -d: -f2)"
    prop_us="$(printf '%s\n' "$out" \
      | grep -F '"metric":"histogram/server.propagation.latency_us/p99"' | head -1 \
      | grep -o '"value":[0-9.eE+-]*' | cut -d: -f2)"
    if [ -n "$plain_us" ] && [ -n "$traced_us" ] && [ -n "$prop_us" ]; then
      echo "check_perf.sh: attempt $attempt: fan-out p99 ${plain_us} us untraced," \
        "${traced_us} us traced (need <= 1.03x), propagation p99 ${prop_us} us" \
        "(need 0 < p99 <= 20000 us)" >&2
      if awk -v p="$plain_us" -v t="$traced_us" -v e="$prop_us" \
          'BEGIN { exit !(t <= p * 1.03 && e > 0 && e <= 20000) }'; then
        trace_ok=1
        break
      fi
    else
      echo "check_perf.sh: attempt $attempt could not measure the tracing overhead" >&2
    fi
    attempt=$((attempt + 1))
  done
  if [ "$trace_ok" != "1" ]; then
    echo "check_perf.sh: FAIL: traced fan-out p99 above 1.03x untraced (or flows" \
      "did not close) after 3 attempts" >&2
    failures=$((failures + 1))
  fi
else
  echo "check_perf.sh: missing bench binary $SV_BIN (build the project first)" >&2
  failures=$((failures + 1))
fi

# The PR-9 accountant overhead bound: the accounted loop and its
# _Unaccounted twin run in one process, five repetitions each in random
# interleaved order, and the accounted median must stay within 1.02x of the
# unaccounted median.  Interleaving spreads a slow stretch of a loaded
# machine over both twins, and the median drops the repetition it hit.
check_accounting_overhead() {
  bin="$1"
  accounted="$2"
  unaccounted="$3"
  if [ ! -x "$bin" ]; then
    echo "check_perf.sh: missing bench binary $bin (build the project first)" >&2
    return 1
  fi
  attempt=1
  while [ "$attempt" -le 3 ]; do
    out="$("$bin" --benchmark_filter="^($accounted|$unaccounted)\$" \
        --benchmark_min_time=0.05 --benchmark_repetitions=5 \
        --benchmark_enable_random_interleaving=true --benchmark_color=false 2>/dev/null \
      | grep -o '{"bench":.*}')" || out=""
    on_ns="$(printf '%s\n' "$out" \
      | grep -F "\"metric\":\"${accounted}_median\"" | head -1 \
      | grep -o '"value":[0-9.eE+-]*' | cut -d: -f2)"
    off_ns="$(printf '%s\n' "$out" \
      | grep -F "\"metric\":\"${unaccounted}_median\"" | head -1 \
      | grep -o '"value":[0-9.eE+-]*' | cut -d: -f2)"
    if [ -n "$on_ns" ] && [ -n "$off_ns" ]; then
      echo "check_perf.sh: attempt $attempt: $accounted median = ${on_ns} ns accounted," \
        "${off_ns} ns unaccounted (need <= 1.02x)" >&2
      if awk -v on="$on_ns" -v off="$off_ns" 'BEGIN { exit !(on <= off * 1.02) }'; then
        return 0
      fi
    else
      echo "check_perf.sh: attempt $attempt could not measure the accounting overhead" >&2
    fi
    attempt=$((attempt + 1))
  done
  echo "check_perf.sh: FAIL: $accounted above 1.02x its unaccounted twin after 3 attempts" >&2
  return 1
}

check_accounting_overhead "$DS_BIN" \
  "BM_ReadDocumentBySize/256" "BM_ReadDocumentBySize_Unaccounted/256" \
  || failures=$((failures + 1))
check_accounting_overhead "$SV_BIN" \
  "BM_EditFanOut/256" "BM_EditFanOut_Unaccounted/256" \
  || failures=$((failures + 1))

if [ "$failures" -gt 0 ]; then
  echo "check_perf.sh: FAIL: $failures metric(s) out of bounds" >&2
  exit 1
fi
echo "check_perf.sh: PASS" >&2
exit 0
