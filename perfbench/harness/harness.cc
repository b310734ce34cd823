#include "harness.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "src/apps/standard_modules.h"
#include "src/class_system/loader.h"

namespace perfbench {
namespace {

using atk::observability::ScopedSpan;
using atk::observability::SpanRecord;
using atk::observability::Tracer;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported from the untraced run (--trace 0).  Must
// match BENCHMARK.json's end_to_end list; perfbench/run.py checks it does.
constexpr MetricSpec kEndToEnd[] = {
    {"p50_us", "us"},           {"p99_us", "us"},   {"ops_per_s", "1/s"},
    {"peak_rss_bytes", "bytes"}, {"setup_s", "s"},
};

// The per-layer metrics, reported from the traced run (--trace 1).  Every
// run reports all of them; a layer the workload does not exercise reads 0
// with no samples.  Must match BENCHMARK.json's per_layer list.
constexpr MetricSpec kLayerMetrics[] = {
    // keystroke
    {"base.dispatch_us", "us"},
    {"base.runonce_us", "us"},
    {"base.update_cycle_self_us", "us"},
    {"graphics.view_draw_self_us", "us"},
    {"wm.flush_us", "us"},
    {"text.layouts_per_op", "count"},
    {"text.layout_lines_reused_per_op", "count"},
    {"base.damage_posted_per_op", "count"},
    {"base.damage_rects_per_cycle", "count"},
    {"base.views_updated_per_op", "count"},
    {"base.clip_reuse_ratio", "ratio"},
    {"graphics.region_bands_p99", "count"},
    {"text.jump_us", "us"},
    // open (datastream.read_us is shared with mail)
    {"datastream.read_us", "us"},
    {"datastream.read_mb_per_s", "MB/s"},
    {"datastream.tokens_per_op", "count"},
    {"datastream.read_superlinearity", "ratio"},
    {"observability.mem_peak_per_doc_byte", "ratio"},
    {"base.first_paint_us", "us"},
    {"base.close_us", "us"},
    // mail
    {"datastream.write_us", "us"},
    {"datastream.write_mb_per_s", "MB/s"},
    {"apps.deliver_us", "us"},
    {"robustness.salvage_us", "us"},
    {"robustness.quarantined_bytes_per_salvage", "bytes"},
    // collab
    {"server.submit_us", "us"},
    {"server.client_pump_us", "us"},
    {"server.server_pump_us", "us"},
    {"server.link_tick_us", "us"},
    {"server.ticks_p50", "count"},
    {"server.ticks_p99", "count"},
    {"server.frames_sent_per_edit", "count"},
    {"server.retransmits_per_edit", "count"},
    {"server.reconnects", "count"},
    {"server.evictions", "count"},
    {"server.lost_edits", "count"},
    {"server.duplicate_edits", "count"},
    {"server.edit_apply_self_us", "us"},
    {"server.fanout_self_us", "us"},
    {"client.update_apply_self_us", "us"},
    {"server.propagation_p99_us", "us"},
    // every workload
    {"fail_ratio", "ratio"},
    {"observability.tracing_overhead", "ratio"},
};

// Set-ups per untraced run, some before the measured phase and the rest
// after it, so that one slow stretch of the machine does not take them all;
// setup_s is their median.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
// An untraced run keeps going past --seconds until every op slot has been
// measured this often (capped at 4x --seconds): keystroke's p99 slots took
// about six repetitions to read alike from run to run.  Each traced half
// needs one full cycle.
constexpr uint64_t kMinCycles = 6;
// CycleTable settings: repetitions kept, and the slots on either side of
// an op whose slowdown corrects its time.
constexpr size_t kKeptReps = 32;
constexpr size_t kSlowdownWindow = 25;
// The machine's speed.  The shared VM the figures in README.md come from
// runs the same code up to ~1.9x slower for stretches from a fraction of a
// second to minutes, and a whole run can fall in one.  A reference kernel
// made of the C++ standard library alone (allocating, filling, walking and
// freeing small strings: the kind of work those stretches slow the most)
// is timed every kKernelEveryNs during the measured phase.  The end-to-end
// times are scaled by kReferenceKernelUs over the kernel's 10th percentile
// in the run: they read as if the machine ran the kernel in
// kReferenceKernelUs, its time on that VM when nothing slows it.
constexpr int kKernelStrings = 2000;
constexpr uint64_t kKernelEveryNs = 100'000'000;
constexpr double kReferenceKernelUs = 160.0;
// Per-thread span ring for the traced phase: one collab burst records a few
// thousand spans, and the ring is drained after every op.
constexpr size_t kTraceCapacity = size_t{1} << 16;

WorkloadFactory FactoryFor(const std::string& name) {
  static const std::map<std::string, WorkloadFactory> kFactories = {
      {"keystroke", MakeKeystroke},
      {"open", MakeOpen},
      {"collab", MakeCollab},
      {"mail", MakeMail},
  };
  auto it = kFactories.find(name);
  return it == kFactories.end() ? nullptr : it->second;
}

std::vector<SpanInput> ToSpanInputs(const std::vector<SpanRecord>& records) {
  std::vector<SpanInput> spans;
  spans.reserve(records.size());
  for (const SpanRecord& record : records) {
    SpanInput span;
    span.name = std::string(record.name_view());
    span.start_ns = record.start_ns;
    span.duration_ns = record.duration_ns;
    span.thread = record.thread;
    span.depth = record.depth;
    span.flow = record.flow;
    spans.push_back(std::move(span));
  }
  return spans;
}

// Runs the reference kernel once; returns its time in us.
volatile size_t g_kernel_sink = 0;  // Keeps the kernel's work observable.

double ReferenceKernelUs() {
  uint64_t t0 = NowNs();
  std::vector<std::unique_ptr<std::string>> strings;
  strings.reserve(kKernelStrings);
  for (int i = 0; i < kKernelStrings; ++i) {
    strings.push_back(std::make_unique<std::string>(40 + i % 64, 'x'));
  }
  size_t total = 0;
  for (const auto& text : strings) {
    total += text->size();
  }
  strings.clear();
  g_kernel_sink = total;
  return Us(NowNs() - t0);
}

struct PhaseResult {
  explicit PhaseResult(size_t cycle) : latency_us(cycle, kKeptReps), busy_us(cycle, kKeptReps) {}
  CycleTable latency_us;
  CycleTable busy_us;
  std::vector<double> slot_latency_us;  // Per-slot estimates, set at the end.
  std::vector<double> slot_busy_us;
  std::vector<double> kernel_us;  // Reference kernel times.
  bool correct = true;
  std::string why;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> layers;
  double p50_us() const { return Median(slot_latency_us); }
  double ops_per_s() const {
    double busy_s = 0.0;
    for (double us : slot_busy_us) {
      busy_s += us * 1e-6;
    }
    return busy_s > 0.0 ? static_cast<double>(slot_busy_us.size()) / busy_s : 0.0;
  }
  // kReferenceKernelUs over the kernel's 10th percentile: times are
  // multiplied by it, rates divided.
  double speed_scale() const {
    double kernel = PercentileOf(kernel_us, 0.10).value;
    return kernel > 0.0 ? kReferenceKernelUs / kernel : 1.0;
  }
};

PhaseResult RunPhase(Workload& workload, double seconds, uint64_t min_cycles, bool traced) {
  Tracer& tracer = Tracer::Instance();
  if (traced) {
    tracer.SetCapacity(kTraceCapacity);
    tracer.SetFlowsEnabled(true);
    tracer.SetEnabled(true);
    { ScopedSpan warm("bench.warmup"); }  // Allocates this thread's ring now.
    tracer.Clear();
  }
  PhaseResult result(workload.cycle_ops());
  uint64_t start = NowNs();
  uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t hard_deadline = start + static_cast<uint64_t>(4 * seconds * 1e9);
  uint64_t spans_lost = 0;
  uint64_t last_kernel = 0;
  while (true) {
    uint64_t now = NowNs();
    if (!traced && now - last_kernel >= kKernelEveryNs) {
      result.kernel_us.push_back(ReferenceKernelUs());
      last_kernel = now = NowNs();
    }
    bool enough = result.latency_us.full_cycles() >= min_cycles;
    if (now >= deadline && (enough || now >= hard_deadline)) {
      break;
    }
    OpSample sample = workload.RunOp();
    result.latency_us.Add(sample.latency_us);
    result.busy_us.Add(sample.busy_us);
    if (traced) {
      std::vector<SpanRecord> records = tracer.Collect();
      spans_lost += tracer.recorded() - records.size();
      tracer.Clear();
      workload.AbsorbSpans(BuildSpanTree(ToSpanInputs(records)));
    }
  }
  if (traced) {
    tracer.SetEnabled(false);
  }
  result.slot_latency_us = result.latency_us.Estimates(kSlowdownWindow);
  result.slot_busy_us = result.busy_us.Estimates(kSlowdownWindow);
  result.correct = workload.Finish(&result.why);
  if (spans_lost != 0) {
    result.correct = false;
    result.why += " traced phase lost " + std::to_string(spans_lost) + " spans to ring wrap;";
  }
  result.attempted = workload.attempted();
  result.failed = workload.failed();
  result.layers = workload.LayerMetrics();
  return result;
}

int64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      int64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

std::string Number(double value) {
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void PrintMetric(const Metric& metric) {
  std::printf("  %-40s %16s %-6s n=%zu\n", metric.name.c_str(), Number(metric.value).c_str(),
              metric.unit.c_str(), metric.samples);
}

// Prints the human-readable table, then the contract's one-line JSON result.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    PrintMetric(metric);
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Orders `measured` by `specs`, filling layers the workload did not measure
// with zero-sample zeros, and appends measured metrics nobody declared so
// that run.py's key check catches the mismatch.
template <size_t N>
std::vector<Metric> Canonical(const MetricSpec (&specs)[N], std::vector<Metric> measured) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    Metric metric{spec.name, 0.0, spec.unit, 0};
    for (auto it = measured.begin(); it != measured.end(); ++it) {
      if (it->name == spec.name) {
        metric = *it;
        measured.erase(it);
        break;
      }
    }
    out.push_back(metric);
  }
  out.insert(out.end(), measured.begin(), measured.end());
  return out;
}

void Explain(const PhaseResult& phase, const char* label) {
  if (!phase.correct) {
    std::printf("output check FAILED (%s):%s\n", label, phase.why.c_str());
  }
}

}  // namespace

void LoadToolkitModules() {
  static const bool loaded = [] {
    atk::RegisterStandardModules();
    for (const char* module : {"text", "table", "drawing", "equation", "raster"}) {
      atk::Loader::Instance().Require(module);
    }
    return true;
  }();
  (void)loaded;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Metric MedianMetric(const std::string& name, const std::vector<double>& values,
                    const std::string& unit) {
  return Metric{name, Median(values), unit, values.size()};
}

Metric RatioMetric(const std::string& name, double numerator, double denominator,
                   const std::string& unit, size_t samples) {
  return Metric{name, denominator > 0.0 ? numerator / denominator : 0.0, unit, samples};
}

int RunBenchmark(const std::string& name, uint64_t seed, double seconds, bool trace) {
  WorkloadFactory make = FactoryFor(name);
  if (make == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", name.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  if (!trace) {
    std::vector<double> setups;
    std::unique_ptr<Workload> workload;
    auto set_up = [&] {
      workload.reset();
      uint64_t t0 = NowNs();
      workload = make(seed);
      setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    };
    for (int i = 0; i < kSetupsBefore; ++i) {
      set_up();
    }
    PhaseResult run = RunPhase(*workload, seconds, kMinCycles, false);
    // The run's peak, read before the trailing set-ups.
    int64_t peak_rss = PeakRssBytes();
    for (int i = 0; i < kSetupsAfter; ++i) {
      set_up();
    }
    workload.reset();
    const std::vector<double>& slots = run.slot_latency_us;
    Percentile p99 = PercentileOf(slots, 0.99);
    double scale = run.speed_scale();
    std::vector<Metric> metrics = {
        {"p50_us", run.p50_us() * scale, "us", slots.size()},
        {"p99_us", p99.value * scale, "us", slots.size()},
        {"ops_per_s", run.ops_per_s() / scale, "1/s", slots.size()},
        {"peak_rss_bytes", static_cast<double>(peak_rss), "bytes", 1},
        {"setup_s", Median(setups) * scale, "s", setups.size()},
    };
    std::printf("%llu ops: %zu op slots, each measured %llu times or more (%zu kept), "
                "%zu beyond p99; %llu ops failed a check\n",
                static_cast<unsigned long long>(run.latency_us.count()), slots.size(),
                static_cast<unsigned long long>(run.latency_us.full_cycles()),
                run.latency_us.kept_reps(), p99.beyond,
                static_cast<unsigned long long>(run.failed));
    std::printf("reference kernel: p10 %s us, median %s us over %zu runs; times x %s "
                "(unscaled p50 %s us, p99 %s us)\n",
                Number(PercentileOf(run.kernel_us, 0.10).value).c_str(),
                Number(Median(run.kernel_us)).c_str(), run.kernel_us.size(),
                Number(scale).c_str(), Number(run.p50_us()).c_str(), Number(p99.value).c_str());
    for (const Metric& layer : run.layers) {
      if (layer.name == "fail_ratio") {
        PrintMetric(layer);  // The table only; the JSON holds end-to-end metrics.
      }
    }
    Explain(run, "run");
    PrintResult(run.correct, run.attempted, run.failed, Canonical(kEndToEnd, metrics));
    return 0;
  }
  // The traced run: an untraced phase and a traced phase over the same seed,
  // half the time each.  Layer numbers come from the traced phase.
  PhaseResult plain = RunPhase(*make(seed), seconds / 2, 1, false);
  PhaseResult traced = RunPhase(*make(seed), seconds / 2, 1, true);
  uint64_t attempted = plain.attempted + traced.attempted;
  uint64_t failed = plain.failed + traced.failed;
  std::vector<Metric> layers = traced.layers;
  layers.push_back(RatioMetric("observability.tracing_overhead", traced.p50_us(),
                               plain.p50_us(), "ratio", traced.slot_latency_us.size()));
  std::printf("untraced p50 %s us over %llu ops; traced p50 %s us over %llu ops\n",
              Number(plain.p50_us()).c_str(),
              static_cast<unsigned long long>(plain.latency_us.count()),
              Number(traced.p50_us()).c_str(),
              static_cast<unsigned long long>(traced.latency_us.count()));
  Explain(plain, "untraced phase");
  Explain(traced, "traced phase");
  PrintResult(plain.correct && traced.correct, attempted, failed,
              Canonical(kLayerMetrics, layers));
  return 0;
}

}  // namespace perfbench
