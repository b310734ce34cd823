// E2 — §5's external representation: write/read throughput, nesting-depth
// sweeps, and the headline structural property — finding an object's extent
// by bracket matching (SkipObject) versus fully parsing it.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include <sstream>

#include "src/apps/standard_modules.h"
#include "src/base/data_object.h"
#include "src/class_system/loader.h"
#include "src/components/text/gap_buffer.h"
#include "src/observability/memory.h"
#include "src/workload/workload.h"
#include "tests/baseline_reader.h"

namespace atk {
namespace {

void Setup() {
  static bool done = [] {
    RegisterStandardModules();
    Loader::Instance().Require("text");
    Loader::Instance().Require("table");
    Loader::Instance().Require("drawing");
    Loader::Instance().Require("equation");
    Loader::Instance().Require("raster");
    return true;
  }();
  (void)done;
}

std::string MakeDocument(int paragraphs, int nesting) {
  WorkloadRng rng(1988);
  CompoundDocumentSpec spec;
  spec.paragraphs = paragraphs;
  spec.nesting_depth = nesting;
  spec.tables = 1;
  spec.drawings = 1;
  spec.equations = 1;
  spec.rasters = 1;
  std::unique_ptr<TextData> doc = GenerateCompoundDocument(rng, spec);
  return WriteDocument(*doc);
}

void BM_WriteDocumentBySize(benchmark::State& state) {
  Setup();
  WorkloadRng rng(7);
  std::unique_ptr<TextData> doc = GenerateDocument(rng, static_cast<int>(state.range(0)));
  int64_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    DataStreamWriter writer(out);
    doc->Write(writer);
    bytes = writer.bytes_written();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  state.counters["doc_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_WriteDocumentBySize)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_ReadDocumentBySize(benchmark::State& state) {
  Setup();
  WorkloadRng rng(7);
  std::unique_ptr<TextData> doc = GenerateDocument(rng, static_cast<int>(state.range(0)));
  std::string serialized = WriteDocument(*doc);
  for (auto _ : state) {
    ReadContext ctx;
    std::unique_ptr<DataObject> read = ReadDocument(serialized, &ctx);
    benchmark::DoNotOptimize(read);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(serialized.size()));
  // Bytes-per-document gate (perf_baseline.json): peak accounted bytes one decode
  // of the 256-paragraph corpus adds on top of whatever is already live.
  if (state.range(0) == 256) {
    using atk::observability::MemoryAccountant;
    MemoryAccountant& accountant = MemoryAccountant::Instance();
    accountant.ResetPeaks();
    int64_t before = accountant.total();
    {
      ReadContext ctx;
      std::unique_ptr<DataObject> read = ReadDocument(serialized, &ctx);
      benchmark::DoNotOptimize(read);
    }
    static atk::observability::Gauge& doc_peak =
        atk::observability::MetricsRegistry::Instance().gauge(
            "datastream.bench.doc_peak_bytes");
    doc_peak.Set(accountant.peak() - before);
  }
}
BENCHMARK(BM_ReadDocumentBySize)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The identical loop with the accountant switched off: a perf gate holds
// the accounted run within 2% of this one (same process, same corpus), the
// instrumentation's whole-path overhead budget.  Everything this loop
// charges/releases happens inside the disabled window, so the gauges stay
// exact when accounting resumes.
void BM_ReadDocumentBySize_Unaccounted(benchmark::State& state) {
  Setup();
  WorkloadRng rng(7);
  std::unique_ptr<TextData> doc = GenerateDocument(rng, static_cast<int>(state.range(0)));
  std::string serialized = WriteDocument(*doc);
  atk::observability::SetMemoryAccountingEnabled(false);
  for (auto _ : state) {
    ReadContext ctx;
    std::unique_ptr<DataObject> read = ReadDocument(serialized, &ctx);
    benchmark::DoNotOptimize(read);
  }
  atk::observability::SetMemoryAccountingEnabled(true);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(serialized.size()));
}
BENCHMARK(BM_ReadDocumentBySize_Unaccounted)->Arg(256);

// The pre-PR-5 copying ingestion path (tests/baseline_reader.h, the test
// oracle compiled into this bench and the differential test only): the old
// lexer accumulates every text token into an owning std::string byte by
// byte, and the document body lands in the gap buffer one fragment at a
// time.  A gate line in perf_baseline.json pins BM_ReadDocumentBySize/256 at
// >= 3x the throughput of this baseline.
void BM_ReadDocumentBySize_Baseline(benchmark::State& state) {
  Setup();
  WorkloadRng rng(7);
  std::unique_ptr<TextData> doc = GenerateDocument(rng, static_cast<int>(state.range(0)));
  std::string serialized = WriteDocument(*doc);
  using Kind = BaselineDataStreamReader::Token::Kind;
  for (auto _ : state) {
    BaselineDataStreamReader reader(serialized);
    GapBuffer buffer;
    int64_t newlines = 0;
    while (true) {
      BaselineDataStreamReader::Token token = reader.Next();
      if (token.kind == Kind::kEof) {
        break;
      }
      if (token.kind == Kind::kText) {
        buffer.Insert(buffer.size(), token.text);
        for (char ch : token.text) {
          newlines += ch == '\n' ? 1 : 0;
        }
      }
    }
    benchmark::DoNotOptimize(buffer);
    benchmark::DoNotOptimize(newlines);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(serialized.size()));
}
BENCHMARK(BM_ReadDocumentBySize_Baseline)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// One embedded object of `kind`: 0 a text, 1 a 3x3 table with a text in a
// cell, 2 a drawing (whose text shapes nest texts too), 3 a raster.
std::unique_ptr<DataObject> MakeEmbeddedObject(WorkloadRng& rng, int kind) {
  switch (kind) {
    case 0: {
      auto text = std::make_unique<TextData>();
      text->SetText(GenerateProse(rng, 12));
      return text;
    }
    case 1: {
      std::unique_ptr<TableData> table = GenerateSpreadsheet(rng, 3, 3);
      auto cell = std::make_unique<TextData>();
      cell->SetText(GenerateProse(rng, 8));
      table->SetObject(1, 1, std::move(cell));
      return table;
    }
    case 2:
      return GenerateDrawing(rng, 4, 80, 60);
    default:
      return GenerateRaster(rng, 16, 12);
  }
}

// A root text holding `objects` embedded objects at random positions, all
// of `kind`, or cycling through text, table and drawing when `kind` is -1.
std::string MakeEmbeddedObjectDocument(int objects, int kind = -1) {
  WorkloadRng rng(4096);
  std::unique_ptr<TextData> doc = GenerateDocument(rng, 4 + objects / 4);
  for (int i = 0; i < objects; ++i) {
    std::unique_ptr<DataObject> child = MakeEmbeddedObject(rng, kind < 0 ? i % 3 : kind);
    int64_t pos = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(doc->size() + 1)));
    doc->InsertObject(pos, std::move(child));
  }
  return WriteDocument(*doc);
}

// Decode cost against embedded-object count: a root text holding `objects`
// children that cycle through a text, a table with a text in a cell, and a
// drawing, so nested texts appear at every size.  Read time should grow
// linearly in the object count; the /4096 run also publishes the peak
// accounted bytes of one decode (gated against the document size).
void BM_ReadCompoundByObjects(benchmark::State& state) {
  Setup();
  std::string serialized = MakeEmbeddedObjectDocument(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ReadContext ctx;
    std::unique_ptr<DataObject> read = ReadDocument(serialized, &ctx);
    benchmark::DoNotOptimize(read);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(serialized.size()));
  state.counters["doc_bytes"] = static_cast<double>(serialized.size());
  if (state.range(0) == 4096) {
    using atk::observability::MemoryAccountant;
    MemoryAccountant& accountant = MemoryAccountant::Instance();
    accountant.ResetPeaks();
    int64_t before = accountant.total();
    {
      ReadContext ctx;
      std::unique_ptr<DataObject> read = ReadDocument(serialized, &ctx);
      benchmark::DoNotOptimize(read);
    }
    static atk::observability::Gauge& doc_peak =
        atk::observability::MetricsRegistry::Instance().gauge(
            "datastream.bench.doc_peak_bytes");
    doc_peak.Set(accountant.peak() - before);
  }
}
BENCHMARK(BM_ReadCompoundByObjects)->Arg(256)->Arg(1024)->Arg(4096);

// Decode cost per kind of embedded object: 256 objects of one kind (0 text,
// 1 table, 2 drawing, 3 raster) in the same root text.  A kind's per-object
// set-up work (style sheets, directive parsing, empty-table recalculation)
// shows here undiluted by the other kinds.
void BM_ReadEmbeddedByKind(benchmark::State& state) {
  Setup();
  std::string serialized = MakeEmbeddedObjectDocument(256, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ReadContext ctx;
    std::unique_ptr<DataObject> read = ReadDocument(serialized, &ctx);
    benchmark::DoNotOptimize(read);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(serialized.size()));
  state.counters["doc_bytes"] = static_cast<double>(serialized.size());
}
BENCHMARK(BM_ReadEmbeddedByKind)->DenseRange(0, 3);

void BM_RoundTripCompoundByNesting(benchmark::State& state) {
  Setup();
  std::string serialized = MakeDocument(4, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ReadContext ctx;
    std::unique_ptr<DataObject> read = ReadDocument(serialized, &ctx);
    std::string rewritten = WriteDocument(*read);
    benchmark::DoNotOptimize(rewritten);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(serialized.size()));
  state.counters["nesting"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RoundTripCompoundByNesting)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The §5 property: skipping an unknown object needs no component code and
// no content parsing.  Compare against a full parse of the same bytes.
void BM_SkipObjectVsFullParse_Skip(benchmark::State& state) {
  Setup();
  std::string serialized = MakeDocument(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    DataStreamReader reader(serialized);
    DataStreamReader::Token token = reader.Next();
    std::string_view raw;
    reader.SkipObject(token.type, token.id, &raw);
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(serialized.size()));
}
BENCHMARK(BM_SkipObjectVsFullParse_Skip)->Arg(16)->Arg(64)->Arg(256);

void BM_SkipObjectVsFullParse_Parse(benchmark::State& state) {
  Setup();
  std::string serialized = MakeDocument(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    ReadContext ctx;
    std::unique_ptr<DataObject> read = ReadDocument(serialized, &ctx);
    benchmark::DoNotOptimize(read);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(serialized.size()));
}
BENCHMARK(BM_SkipObjectVsFullParse_Parse)->Arg(16)->Arg(64)->Arg(256);

// Escaping overhead: text heavy in backslashes/high bytes vs plain prose.
void BM_EscapingPlainProse(benchmark::State& state) {
  Setup();
  WorkloadRng rng(3);
  std::string prose = GenerateProse(rng, 2000);
  for (auto _ : state) {
    std::ostringstream out;
    DataStreamWriter writer(out);
    writer.WriteText(prose);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(prose.size()));
}
BENCHMARK(BM_EscapingPlainProse);

void BM_EscapingHostileBytes(benchmark::State& state) {
  Setup();
  std::string hostile;
  for (int i = 0; i < 8000; ++i) {
    hostile += static_cast<char>(i % 7 == 0 ? '\\' : (i % 11 == 0 ? 0xE9 : 'a' + i % 26));
  }
  for (auto _ : state) {
    std::ostringstream out;
    DataStreamWriter writer(out);
    writer.WriteText(hostile);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(hostile.size()));
}
BENCHMARK(BM_EscapingHostileBytes);

// Truncation recovery: parse documents chopped at every quartile.
void BM_TruncatedDocumentRecovery(benchmark::State& state) {
  Setup();
  std::string serialized = MakeDocument(32, 2);
  for (auto _ : state) {
    for (int quartile = 1; quartile <= 3; ++quartile) {
      std::string chopped = serialized.substr(0, serialized.size() * quartile / 4);
      ReadContext ctx;
      std::unique_ptr<DataObject> read = ReadDocument(std::move(chopped), &ctx);
      benchmark::DoNotOptimize(read);
    }
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_TruncatedDocumentRecovery);

}  // namespace
}  // namespace atk

ATK_BENCH_MAIN("bench_datastream");
