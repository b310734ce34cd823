// Robustness: fault injection, datastream salvage, graceful degradation.
//
// The acceptance criteria for the harness live here:
//   * every proper prefix of a document is flagged by the reader;
//   * a 64-seed fault-injection sweep: salvage terminates, its output is
//     reader-clean, a salvage -> read -> save cycle reaches a byte-stable
//     fixed point, and undamaged siblings are recovered byte-exact;
//   * a failed module load degrades to an UnknownView placeholder with
//     bounded retry/backoff, never a crash;
//   * both window-system backends survive injected connection drops by
//     reconnecting and replaying a full-window expose.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/standard_modules.h"
#include "src/base/data_object.h"
#include "src/base/interaction_manager.h"
#include "src/class_system/loader.h"
#include "src/components/frame/unknown_view.h"
#include "src/components/raster/raster_data.h"
#include "src/components/table/table_data.h"
#include "src/components/text/text_data.h"
#include "src/components/text/text_view.h"
#include "src/datastream/reader.h"
#include "src/datastream/writer.h"
#include "src/observability/observability.h"
#include "src/robustness/fault_injector.h"
#include "src/robustness/salvage.h"
#include "src/wm/wm_itc.h"
#include "src/wm/wm_x11sim.h"
#include "src/workload/corruption.h"

namespace atk {
namespace {

using Kind = DataStreamReader::Token::Kind;

std::string TokenizeAndReport(const std::string& input, bool* clean) {
  DataStreamReader reader(input);
  while (reader.Next().kind != Kind::kEof) {
  }
  *clean = reader.diagnostics().empty() && !reader.truncated();
  std::string report;
  for (const Diagnostic& d : reader.diagnostics()) {
    report += d.ToString() + "\n";
  }
  return report;
}

// ---- Reader diagnostics (satellite 1) -------------------------------------

TEST(ReaderDiagnostics, MalformedMarkerSurfacesAsDiagnosticToken) {
  DataStreamReader reader("\\begindata{text}\nhello");
  DataStreamReader::Token token = reader.Next();
  EXPECT_EQ(token.kind, Kind::kDiagnostic);
  // The raw damaged bytes are preserved in the token.
  EXPECT_EQ(token.text, "\\begindata{text}");
  ASSERT_FALSE(reader.diagnostics().empty());
  EXPECT_EQ(reader.diagnostics()[0].code, StatusCode::kCorrupt);
  EXPECT_EQ(reader.diagnostics()[0].offset, 0u);
}

TEST(ReaderDiagnostics, UnterminatedDirectiveSurfacesAsDiagnostic) {
  DataStreamReader reader("abc\\begindata{text,1\nrest");
  DataStreamReader::Token text = reader.Next();
  EXPECT_EQ(text.kind, Kind::kText);
  DataStreamReader::Token token = reader.Next();
  EXPECT_EQ(token.kind, Kind::kDiagnostic);
  EXPECT_EQ(token.text, "\\begindata{text,1");
  EXPECT_EQ(token.offset, 3u);
  EXPECT_FALSE(reader.diagnostics().empty());
}

TEST(ReaderDiagnostics, TruncationRecordsDiagnosticWithOffset) {
  DataStreamReader reader("\\begindata{text,1}\nbody");
  while (reader.Next().kind != Kind::kEof) {
  }
  EXPECT_TRUE(reader.truncated());
  ASSERT_FALSE(reader.diagnostics().empty());
  EXPECT_EQ(reader.diagnostics().back().code, StatusCode::kTruncated);
}

TEST(ReaderDiagnostics, CleanStreamHasNoDiagnostics) {
  bool clean = false;
  std::string report =
      TokenizeAndReport("\\begindata{text,1}\nhello \\bold{} world\n\\enddata{text,1}\n", &clean);
  EXPECT_TRUE(clean) << report;
}

// Satellite 3a: every nonzero proper prefix of a serialized document is
// flagged — truncation or a diagnostic, never a silent success.
TEST(ReaderDiagnostics, EveryProperPrefixIsFlagged) {
  std::ostringstream out;
  {
    DataStreamWriter writer(out);
    writer.BeginData("text");
    writer.WriteText("line one\nline \\ two with escapes \x05\n");
    int64_t inner = writer.BeginData("table");
    writer.WriteDirective("cols", "3");
    writer.EndData();
    writer.WriteViewReference("tableview", inner);
    writer.EndData();
  }
  std::string doc = out.str();
  ASSERT_GT(doc.size(), 10u);
  for (size_t cut = 1; cut < doc.size(); ++cut) {
    if (doc.find_first_not_of(" \t\n", cut) == std::string::npos) {
      continue;  // Only trailing whitespace is missing: a complete document.
    }
    DataStreamReader reader(doc.substr(0, cut));
    while (reader.Next().kind != Kind::kEof) {
    }
    EXPECT_TRUE(reader.truncated() || !reader.diagnostics().empty())
        << "prefix of " << cut << " bytes parsed clean";
  }
}

// ---- Salvager --------------------------------------------------------------

TEST(Salvage, CleanStreamPassesThroughByteExact) {
  std::string doc = GenerateSerializedDocument(7);
  SalvageReport report;
  DataStreamSalvager salvager;
  std::string out = salvager.Salvage(doc, &report);
  EXPECT_TRUE(report.clean) << report.ToString();
  EXPECT_EQ(out, doc);
  EXPECT_TRUE(report.status().ok());
}

TEST(Salvage, TruncatedStreamGetsMarkersClosed) {
  std::string doc =
      "\\begindata{text,1}\nhello\n\\begindata{table,2}\n\\cols{2}\n";
  SalvageReport report;
  DataStreamSalvager salvager;
  std::string out = salvager.Salvage(doc, &report);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.markers_closed, 2);
  bool clean = false;
  std::string diag = TokenizeAndReport(out, &clean);
  EXPECT_TRUE(clean) << diag << "\n" << out;
}

TEST(Salvage, MangledChildQuarantinesSubtreeAndKeepsSiblings) {
  // Three siblings; the middle one's \begindata loses its id.
  std::string pre = "\\begindata{text,1}\nbefore\n";
  std::string good1 = "\\begindata{table,2}\n\\cols{2}\n\\enddata{table,2}\n";
  std::string damaged = "\\begindata{drawing}\nshapes...\n\\enddata{drawing,3}\n";
  std::string good2 = "\\begindata{table,4}\n\\cols{9}\n\\enddata{table,4}\n";
  std::string post = "after\n\\enddata{text,1}\n";
  std::string doc = pre + good1 + damaged + good2 + post;

  SalvageReport report;
  DataStreamSalvager salvager;
  std::string out = salvager.Salvage(doc, &report);

  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.subtrees_quarantined, 1);
  // Undamaged siblings recovered byte-exact.
  EXPECT_NE(out.find(good1), std::string::npos);
  EXPECT_NE(out.find(good2), std::string::npos);
  // The damaged subtree is preserved verbatim inside the quarantine.
  EXPECT_NE(out.find(kLostFoundType), std::string::npos);
  size_t body_start = out.find("\\begindata{lostfound,");
  ASSERT_NE(body_start, std::string::npos);
  body_start = out.find('\n', body_start) + 1;
  size_t body_end = out.find("\n\\enddata{lostfound,", body_start);
  ASSERT_NE(body_end, std::string::npos);
  EXPECT_EQ(DataStreamSalvager::UnescapeQuarantine(out.substr(body_start, body_end - body_start)),
            damaged);
  // Quarantine carries a placement ref so components keep it across saves.
  EXPECT_NE(out.find("\\view{unknownview,"), std::string::npos);
  // The result is reader-clean.
  bool clean = false;
  std::string diag = TokenizeAndReport(out, &clean);
  EXPECT_TRUE(clean) << diag << "\n" << out;
}

TEST(Salvage, StrayEnddataIsQuarantined) {
  std::string doc = "\\begindata{text,1}\nhello\n\\enddata{table,9}\nworld\n\\enddata{text,1}\n";
  SalvageReport report;
  DataStreamSalvager salvager;
  std::string out = salvager.Salvage(doc, &report);
  EXPECT_EQ(report.subtrees_quarantined, 1);
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("world"), std::string::npos);
  bool clean = false;
  TokenizeAndReport(out, &clean);
  EXPECT_TRUE(clean);
}

TEST(Salvage, OuterEnddataClosesSkippedMarkers) {
  // The inner table's end marker was destroyed; the root's \enddata must
  // close the table on its way out instead of being reported mismatched.
  std::string doc = "\\begindata{text,1}\n\\begindata{table,2}\n\\cols{2}\n\\enddata{text,1}\n";
  SalvageReport report;
  DataStreamSalvager salvager;
  std::string out = salvager.Salvage(doc, &report);
  EXPECT_EQ(report.markers_closed, 1);
  EXPECT_NE(out.find("\\enddata{table,2}"), std::string::npos);
  bool clean = false;
  TokenizeAndReport(out, &clean);
  EXPECT_TRUE(clean);
}

TEST(Salvage, LoneBackslashIsEscapedInPlace) {
  std::string doc = "\\begindata{text,1}\na \\ b\n\\enddata{text,1}\n";
  SalvageReport report;
  DataStreamSalvager salvager;
  std::string out = salvager.Salvage(doc, &report);
  EXPECT_EQ(report.backslashes_escaped, 1);
  EXPECT_EQ(report.subtrees_quarantined, 0);
  EXPECT_NE(out.find("a \\\\ b"), std::string::npos);
  bool clean = false;
  TokenizeAndReport(out, &clean);
  EXPECT_TRUE(clean);
}

TEST(Salvage, NoRootSynthesizesOne) {
  SalvageReport report;
  DataStreamSalvager salvager;
  std::string out = salvager.Salvage("just some loose bytes\n", &report);
  EXPECT_TRUE(report.root_synthesized);
  EXPECT_EQ(report.subtrees_quarantined, 1);
  bool clean = false;
  TokenizeAndReport(out, &clean);
  EXPECT_TRUE(clean);
  // The loose bytes survive inside the quarantine.
  EXPECT_NE(out.find("just some loose bytes"), std::string::npos);
}

TEST(Salvage, SalvageIsIdempotent) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    CorruptionScenario scenario = RunCorruptionScenario(seed);
    SalvageReport report;
    DataStreamSalvager salvager;
    std::string again = salvager.Salvage(scenario.salvaged, &report);
    EXPECT_TRUE(report.clean) << "seed " << seed << ": " << report.ToString();
    EXPECT_EQ(again, scenario.salvaged) << "seed " << seed;
  }
}

// The tentpole acceptance sweep: 64 seeds of random damage.
TEST(Salvage, SixtyFourSeedFaultInjectionSweep) {
  int salvaged_count = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    CorruptionScenario s = RunCorruptionScenario(seed);
    // Salvage terminated (we are here) and produced a reader-clean stream.
    EXPECT_TRUE(s.reread_clean) << "seed " << seed << "\n" << s.report.ToString();
    ASSERT_TRUE(s.reread_ok) << "seed " << seed;
    // Fixed point: re-reading and re-saving the resaved stream is stable.
    ReadContext ctx;
    std::unique_ptr<DataObject> round2 = ReadDocument(s.resaved, &ctx);
    ASSERT_NE(round2, nullptr) << "seed " << seed;
    EXPECT_EQ(WriteDocument(*round2), s.resaved) << "seed " << seed;
    if (!s.report.clean) {
      ++salvaged_count;
    }
  }
  // The fault mix must actually be exercising the salvager.
  EXPECT_GT(salvaged_count, 32);
}

// Loss bound: when damage hits one byte inside one child, salvage keeps
// every undamaged sibling byte-exact and loses at most the damaged subtree.
TEST(Salvage, SingleFaultLossIsBoundedToTheDamagedSubtree) {
  std::string pre = "\\begindata{text,1}\nbefore\n";
  std::string good1 = "\\begindata{table,2}\n\\cols{2}\n\\enddata{table,2}\n";
  std::string victim = "\\begindata{drawing,3}\npayload bytes\n\\enddata{drawing,3}\n";
  std::string good2 = "\\begindata{raster,4}\nbits\n\\enddata{raster,4}\n";
  std::string post = "after\n\\enddata{text,1}\n";
  std::string doc = pre + good1 + victim + good2 + post;

  // Mangle the victim's begin marker (drop the ",id").
  FaultPlan plan;
  plan.faults.push_back(
      Fault{FaultKind::kMarkerMangle, pre.size() + good1.size(), 0, ""});
  FaultInjector injector(plan);
  std::string corrupted = injector.Corrupt(doc);
  ASSERT_GT(injector.damage_bytes(), 0u);

  SalvageReport report;
  DataStreamSalvager salvager;
  std::string out = salvager.Salvage(corrupted, &report);
  EXPECT_NE(out.find(good1), std::string::npos);
  EXPECT_NE(out.find(good2), std::string::npos);
  EXPECT_NE(out.find("before"), std::string::npos);
  EXPECT_NE(out.find("after"), std::string::npos);
  // The victim's payload is still present (inside the quarantine).
  EXPECT_NE(out.find("payload bytes"), std::string::npos);
}

// ---- The §5 grammar: one scanner, three users -----------------------------

std::string ReadAllDiagnostics(DataStreamReader& reader) {
  while (reader.Next().kind != Kind::kEof) {
  }
  std::string report;
  for (const Diagnostic& d : reader.diagnostics()) {
    report += d.message + "\n";
  }
  return report;
}

TEST(MarkerIds, OverflowingIdsAreMalformed) {
  // 18446744073709551617 is 2^64 + 1.  Ids used to be read with a wrapping
  // (undefined) int64_t multiply, so this \enddata read as id 1 and closed
  // \begindata{text,1} cleanly in the reader, the skip and the salvager.
  const std::string wrapped = "\\begindata{text,1}\nbody\n\\enddata{text,18446744073709551617}\n";
  {
    DataStreamReader reader(wrapped);
    ASSERT_EQ(reader.Next().kind, Kind::kBeginData);
    ASSERT_EQ(reader.Next().kind, Kind::kText);
    DataStreamReader::Token end = reader.Next();
    EXPECT_EQ(end.kind, Kind::kDiagnostic);
    EXPECT_EQ(end.text, "\\enddata{text,18446744073709551617}");
    EXPECT_EQ(ReadAllDiagnostics(reader).rfind("malformed \\enddata marker args", 0), 0u);
    EXPECT_TRUE(reader.truncated());
  }
  {
    DataStreamReader reader(wrapped);
    ASSERT_EQ(reader.Next().kind, Kind::kBeginData);
    std::string_view raw;
    EXPECT_TRUE(reader.SkipObject("text", 1, &raw));
    EXPECT_EQ(raw, "body\n");
    ASSERT_EQ(reader.diagnostics().size(), 1u);
    EXPECT_NE(reader.diagnostics()[0].message.find(
                  "closed by non-matching \\enddata{text,18446744073709551617}"),
              std::string::npos);
  }
  {
    SalvageReport report;
    std::string repaired = DataStreamSalvager().Salvage(wrapped, &report);
    EXPECT_FALSE(report.clean);
    EXPECT_EQ(report.subtrees_quarantined, 1);
    EXPECT_EQ(report.markers_closed, 1);
    bool clean = false;
    TokenizeAndReport(repaired, &clean);
    EXPECT_TRUE(clean) << repaired;
  }
  // The edges of the range, and a sign, which the writer never emits.
  auto first_token = [](const std::string& marker) {
    DataStreamReader reader(marker + "\n");
    DataStreamReader::Token token = reader.Next();
    return std::make_pair(token.kind, token.id);
  };
  EXPECT_EQ(first_token("\\begindata{text,9223372036854775807}"),
            std::make_pair(Kind::kBeginData, std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(first_token("\\begindata{text,9223372036854775808}").first, Kind::kDiagnostic);
  EXPECT_EQ(first_token("\\begindata{text,99999999999999999999}").first, Kind::kDiagnostic);
  EXPECT_EQ(first_token("\\begindata{text,-1}").first, Kind::kDiagnostic);
  EXPECT_EQ(first_token("\\view{textview,-1}").first, Kind::kDiagnostic);
  EXPECT_EQ(first_token("\\view{textview,00042}"), std::make_pair(Kind::kViewRef, int64_t{42}));
}

// The reader, SkipObject and the salvager read the stream with one scanner
// (src/datastream/scanner.h); each case below is one damaged (or merely
// odd) unit at the start of an object's body, and one row says how each of
// the three answers it.  SkipObject counts \begindata names only, so a
// mangled \begindata still opens a level and the skip runs to the end.
TEST(Grammar, EveryGrammarUserReadsDamageTheSameWay) {
  using Action = SalvageAction::Kind;
  struct Case {
    const char* name;
    std::string unit;
    Kind token;              // The reader's first token at the unit.
    std::string diagnostic;  // Prefix of the reader's one diagnostic; "" = none.
    std::vector<Action> actions;  // The salvager's repairs.
    bool skip_closes;        // Whether SkipObject finds the object's \enddata.
  };
  const std::vector<Case> cases = {
      {"lone backslash", "\\", Kind::kText, "lone backslash recovered as literal text",
       {Action::kEscapedBackslash}, true},
      {"unterminated directive", "\\foo{", Kind::kDiagnostic, "unterminated directive \\foo{",
       {Action::kQuarantined}, true},
      {"marker without id", "\\begindata{text}", Kind::kDiagnostic,
       "malformed \\begindata marker args: {text}", {Action::kQuarantined}, true},
      {"non-digit id", "\\begindata{text,1x}", Kind::kDiagnostic,
       "malformed \\begindata marker args: {text,1x}", {Action::kQuarantined}, true},
      {"overflowing id", "\\begindata{text,99999999999999999999}", Kind::kDiagnostic,
       "malformed \\begindata marker args: {text,99999999999999999999}",
       {Action::kQuarantined}, true},
      {"view without id", "\\view{x}", Kind::kDiagnostic, "malformed \\view args: {x}",
       {Action::kQuarantined}, true},
      {"bad hex escape", "\\x{zz}", Kind::kDirective, "", {}, true},
      {"escaped backslash", "\\\\begindata{text,1}", Kind::kText, "", {}, true},
  };
  const std::string open = "\\begindata{doc,1}\n";
  const std::string close = "\\enddata{doc,1}\n";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string body = c.unit + "\n";
    const std::string stream = open + body + close;

    DataStreamReader reader(stream);
    ASSERT_EQ(reader.Next().kind, Kind::kBeginData);
    EXPECT_EQ(reader.Next().kind, c.token);
    std::string diagnostics = ReadAllDiagnostics(reader);
    if (c.diagnostic.empty()) {
      EXPECT_EQ(diagnostics, "");
    } else {
      EXPECT_EQ(diagnostics.rfind(c.diagnostic, 0), 0u) << diagnostics;
      EXPECT_EQ(std::count(diagnostics.begin(), diagnostics.end(), '\n'), 1) << diagnostics;
    }

    SalvageReport report;
    DataStreamSalvager().Salvage(stream, &report);
    std::vector<Action> actions;
    for (const SalvageAction& action : report.actions) {
      actions.push_back(action.kind);
    }
    EXPECT_EQ(actions, c.actions) << report.ToString();

    DataStreamReader skipper(stream);
    ASSERT_EQ(skipper.Next().kind, Kind::kBeginData);
    std::string_view raw;
    EXPECT_EQ(skipper.SkipObject("doc", 1, &raw), c.skip_closes);
    EXPECT_EQ(raw, c.skip_closes ? body : body + close);
    EXPECT_EQ(skipper.truncated(), !c.skip_closes);
  }
}

// ---- FaultInjector determinism ---------------------------------------------

TEST(FaultInjector, SameSeedSamePlanSameDamage) {
  std::string doc = GenerateSerializedDocument(5);
  FaultPlan plan_a = FaultPlan::FromSeed(42, doc.size());
  FaultPlan plan_b = FaultPlan::FromSeed(42, doc.size());
  EXPECT_EQ(plan_a.ToString(), plan_b.ToString());
  FaultInjector inj_a(plan_a);
  FaultInjector inj_b(plan_b);
  EXPECT_EQ(inj_a.Corrupt(doc), inj_b.Corrupt(doc));
  FaultPlan plan_c = FaultPlan::FromSeed(43, doc.size());
  FaultInjector inj_c(plan_c);
  EXPECT_NE(inj_a.Corrupt(doc), inj_c.Corrupt(doc));
}

// ---- Writer diagnostics -----------------------------------------------------

TEST(WriterDiagnostics, UnbalancedWriterReportsCorrupt) {
  std::ostringstream out;
  DataStreamWriter writer(out);
  writer.BeginData("text");
  EXPECT_FALSE(writer.Finish().ok());
  writer.EndData();
  EXPECT_TRUE(writer.Finish().ok());
}

TEST(WriterDiagnostics, DuplicateCallerIdIsDiagnosed) {
  std::ostringstream out;
  DataStreamWriter writer(out);
  writer.BeginDataWithId("text", 7);
  writer.BeginDataWithId("table", 7);
  writer.EndData();
  writer.EndData();
  EXPECT_FALSE(writer.diagnostics().empty());
  EXPECT_FALSE(writer.Finish().ok());
}

// ---- Hostile dimensions -----------------------------------------------------
//
// Tiny documents that declare enormous objects.  Such a \dimensions used to
// abort the process with std::length_error out of TableData::Resize, and
// such a \rasterdim allocated ~450 MB; each must read as a diagnostic with
// nothing allocated for the declared size.

class HostileDimensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardModules();
    ASSERT_TRUE(Loader::Instance().Require("table"));
    ASSERT_TRUE(Loader::Instance().Require("raster"));
  }
};

TEST_F(HostileDimensionsTest, TableBeyondTheCellCapIsADiagnostic) {
  const char* const kDimensions[] = {
      "2000000000,2000000000", "1,2000000000", "0,2000000000", "2000000000,-5", "1024,1025",
  };
  for (const char* dims : kDimensions) {
    ReadContext ctx;
    std::unique_ptr<DataObject> read = ReadDocument(
        std::string("\\begindata{table,1}\n\\dimensions{") + dims + "}\n\\enddata{table,1}\n",
        &ctx);
    TableData* table = ObjectCast<TableData>(read.get());
    ASSERT_NE(table, nullptr) << dims;
    EXPECT_FALSE(ctx.ok()) << dims;
    EXPECT_EQ(table->rows() * table->cols(), 1) << dims;
  }
  // Within the cap, the declared shape is honoured.
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(
      "\\begindata{table,1}\n\\dimensions{100,100}\n\\enddata{table,1}\n", &ctx);
  TableData* table = ObjectCast<TableData>(read.get());
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(ctx.ok());
  EXPECT_EQ(table->rows(), 100);
  EXPECT_EQ(table->cols(), 100);
}

TEST_F(HostileDimensionsTest, RasterLargerThanItsInputIsADiagnostic) {
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(
      "\\begindata{raster,1}\n\\rasterdim{60000,60000}\n\\enddata{raster,1}\n", &ctx);
  RasterData* raster = ObjectCast<RasterData>(read.get());
  ASSERT_NE(raster, nullptr);
  EXPECT_FALSE(ctx.ok());
  EXPECT_LE(int64_t{raster->width()} * raster->height(), 16 * 16);

  // Every honest raster fits: its hex rows carry 4 pixels per digit.
  for (int width : {1, 3, 4, 17, 64}) {
    RasterData source(width, 5);
    source.Set(width - 1, 4, true);
    std::string bytes = WriteDocument(source);
    ReadContext clean;
    std::unique_ptr<DataObject> back = ReadDocument(bytes, &clean);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(clean.ok()) << width;
    EXPECT_EQ(WriteDocument(*back), bytes) << width;
  }
}

// ---- Loader degradation ------------------------------------------------------

class LoaderFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardModules();
    Loader::Instance().UnloadAllForTest();
    Loader::Instance().ClearFailureLog();
  }
  void TearDown() override {
    Loader::Instance().SetLoadFaultHook(nullptr);
    Loader::Instance().set_retry_policy(Loader::RetryPolicy{});
    Loader::Instance().ClearFailureLog();
  }
};

TEST_F(LoaderFaultTest, TransientFailureIsRetriedAndSucceeds) {
  FaultPlan plan = FaultPlan::FromSeed(1, 0, 0, /*load_failures=*/1);
  FaultInjector injector(plan);
  Loader::Instance().SetLoadFaultHook(injector.MakeLoadFaultHook());
  // Default policy allows 3 attempts; the plan injects at most 3 consecutive
  // failures shared across modules, so a couple of Requires get through.
  Loader::Instance().set_retry_policy(Loader::RetryPolicy{4, 100});
  EXPECT_TRUE(Loader::Instance().Require("table"));
  EXPECT_TRUE(Loader::Instance().IsLoaded("table"));
  EXPECT_TRUE(Loader::Instance().failure_log().empty());
}

TEST_F(LoaderFaultTest, ExhaustedRetriesAreRecordedWithBackoff) {
  Loader::Instance().SetLoadFaultHook(
      [](std::string_view, int) { return true; });  // Every attempt fails.
  Loader::Instance().set_retry_policy(Loader::RetryPolicy{3, 500});
  EXPECT_FALSE(Loader::Instance().Require("table"));
  EXPECT_FALSE(Loader::Instance().IsLoaded("table"));
  ASSERT_FALSE(Loader::Instance().failure_log().empty());
  const Loader::FailureRecord& failure = Loader::Instance().failure_log().back();
  EXPECT_EQ(failure.attempts, 3);
  EXPECT_EQ(failure.simulated_backoff_us, 500u + 1000u);  // 2 retries.
  // EnsureClass degrades to nullptr, not a crash.
  EXPECT_EQ(Loader::Instance().EnsureClass("tableview"), nullptr);
}

TEST_F(LoaderFaultTest, RetryMetricsPublishDoublingBackoff) {
  // The registry half of the retry story: every retry bumps
  // class.module.retry, and class.module.simulated_backoff_us accumulates
  // the simulated sleep — which must double per retry within one load.
  observability::Counter& retry =
      observability::MetricsRegistry::Instance().counter("class.module.retry");
  observability::Gauge& backoff = observability::MetricsRegistry::Instance().gauge(
      "class.module.simulated_backoff_us");
  retry.Reset();
  backoff.Reset();
  Loader::Instance().SetLoadFaultHook(
      [](std::string_view, int) { return true; });  // Every attempt fails.

  // Walk max_attempts 2..4 over dependency-free modules.  k retries at
  // initial backoff 500us contribute 500 * (2^k - 1): 500, 1500, 3500 —
  // each module's delta is exactly double-per-retry or the sums don't land.
  const char* modules[] = {"table", "equation", "text"};
  uint64_t expected_retries = 0;
  int64_t expected_backoff = 0;
  for (int attempts = 2; attempts <= 4; ++attempts) {
    Loader::Instance().set_retry_policy(Loader::RetryPolicy{attempts, 500});
    EXPECT_FALSE(Loader::Instance().Require(modules[attempts - 2]));
    uint64_t retries = static_cast<uint64_t>(attempts - 1);
    expected_retries += retries;
    expected_backoff += static_cast<int64_t>(500u * ((1u << retries) - 1u));
    EXPECT_EQ(retry.value(), expected_retries) << attempts << " attempts";
    EXPECT_EQ(backoff.value(), expected_backoff) << attempts << " attempts";
  }

  // The same totals land in the failure log, per module.
  ASSERT_EQ(Loader::Instance().failure_log().size(), 3u);
  EXPECT_EQ(Loader::Instance().failure_log()[0].simulated_backoff_us, 500u);
  EXPECT_EQ(Loader::Instance().failure_log()[1].simulated_backoff_us, 1500u);
  EXPECT_EQ(Loader::Instance().failure_log()[2].simulated_backoff_us, 3500u);
}

TEST_F(LoaderFaultTest, FailedEmbeddedViewDegradesToUnknownView) {
  ASSERT_TRUE(Loader::Instance().Require("text"));
  std::string doc =
      "\\begindata{text,1}\nsee \\begindata{table,2}\n\\dimensions{2,2}\n"
      "\\cell{0,0}\npayload\n\\enddata{table,2}\n"
      "\\view{tableview,2}\\enddata{text,1}\n";
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(doc, &ctx);
  TextData* data = ObjectCast<TextData>(read.get());
  ASSERT_NE(data, nullptr);

  // Reading the document loaded the table module (to build the TableData);
  // unload it again, then make all further loads fail: when the view tree
  // is built, "tableview" is unavailable.
  Loader::Instance().UnloadAllForTest();
  Loader::Instance().SetLoadFaultHook([](std::string_view, int) { return true; });

  auto window = std::make_unique<ItcWindow>(300, 200);
  InteractionManager im(std::move(window));
  TextView view;
  view.SetDataObject(data);
  im.SetChild(&view);
  im.RunOnce();

  ASSERT_EQ(view.children().size(), 1u);
  UnknownView* placeholder = ObjectCast<UnknownView>(view.children()[0]);
  ASSERT_NE(placeholder, nullptr);
  EXPECT_EQ(placeholder->MissingType(), "tableview");
  // The data object (and its save path) is intact despite the degraded view.
  std::string resaved = WriteDocument(*data);
  EXPECT_NE(resaved.find("\\begindata{table,"), std::string::npos);
  EXPECT_NE(resaved.find("\\dimensions{2,2}"), std::string::npos);
  im.SetChild(nullptr);
}

// ---- Window-system connection drops ------------------------------------------

template <typename WindowT>
void ExerciseConnectionDrop() {
  WindowT window(200, 100);
  window.GetGraphic()->FillRect(Rect{0, 0, 200, 100}, kBlack);
  window.Flush();
  while (window.HasEvent()) {
    window.NextEvent();
  }

  window.InjectConnectionDrop();
  EXPECT_FALSE(window.connected());
  EXPECT_EQ(window.drop_count(), 1);
  // The display forgot us.
  EXPECT_EQ(window.Display().GetPixel(5, 5), kWhite);

  // The event loop keeps running: the next poll reconnects and the first
  // event delivered is a full-window expose.
  InputEvent event = window.NextEvent();
  EXPECT_TRUE(window.connected());
  EXPECT_EQ(window.reconnect_count(), 1);
  EXPECT_EQ(event.type, EventType::kExpose);
  EXPECT_EQ(event.rect.width, 200);
  EXPECT_EQ(event.rect.height, 100);

  // Repainting after the expose restores the display.
  window.GetGraphic()->FillRect(Rect{0, 0, 200, 100}, kBlack);
  window.Flush();
  EXPECT_EQ(window.Display().GetPixel(5, 5), kBlack);
}

TEST(WmRobustness, ItcWindowSurvivesConnectionDrop) { ExerciseConnectionDrop<ItcWindow>(); }

TEST(WmRobustness, X11WindowSurvivesConnectionDrop) { ExerciseConnectionDrop<X11Window>(); }

TEST(WmRobustness, EventsInjectedWhileDisconnectedAreLost) {
  ItcWindow window(100, 100);
  window.InjectConnectionDrop();
  window.Inject(InputEvent::MouseAt(EventType::kMouseDown, Point{5, 5}));
  window.Reconnect();
  // Only the replayed expose is queued; the mouse event died with the wire.
  InputEvent event = window.NextEvent();
  EXPECT_EQ(event.type, EventType::kExpose);
  EXPECT_FALSE(window.HasEvent());
}

TEST(WmRobustness, FullUpdateSurvivesDropDuringSession) {
  // End-to-end: an interaction manager keeps working across a drop.
  auto owned = std::make_unique<ItcWindow>(300, 200);
  ItcWindow* window = owned.get();
  InteractionManager im(std::move(owned));
  TextData data;
  data.InsertString(0, "hello robust world\n");
  TextView view;
  view.SetDataObject(&data);
  im.SetChild(&view);
  im.RunOnce();

  window->InjectConnectionDrop();
  im.RunOnce();  // Pumps NextEvent: reconnect + expose + repaint.
  EXPECT_TRUE(window->connected());
  EXPECT_EQ(window->reconnect_count(), 1);
  im.SetChild(nullptr);
}

}  // namespace
}  // namespace atk
