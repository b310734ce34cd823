// Differential pin for the PR-5 zero-copy lexer rewrite.
//
// The frozen pre-rewrite lexer (BaselineDataStreamReader) and the zero-copy
// DataStreamReader are driven over identical bytes — seeded clean documents,
// truncations at every quartile, and the fault-injection corruption workload
// — and must emit token-for-token identical streams, identical diagnostics,
// and identical recovery flags.  This is what makes the rewrite safe: any
// behavioural divergence, however obscure the input, fails here.

#include <gtest/gtest.h>

#include <string>

#include "src/apps/standard_modules.h"
#include "src/class_system/loader.h"
#include "src/datastream/reader.h"
#include "src/robustness/salvage.h"
#include "src/workload/corruption.h"
#include "tests/baseline_reader.h"

namespace atk {
namespace {

constexpr uint64_t kSeeds = 64;

const char* KindName(DataStreamReader::Token::Kind kind) {
  using Kind = DataStreamReader::Token::Kind;
  switch (kind) {
    case Kind::kText: return "text";
    case Kind::kBeginData: return "begindata";
    case Kind::kEndData: return "enddata";
    case Kind::kViewRef: return "view";
    case Kind::kDirective: return "directive";
    case Kind::kDiagnostic: return "diagnostic";
    case Kind::kEof: return "eof";
  }
  return "?";
}

// Drives both lexers over `input` and asserts identical token streams,
// diagnostics, and recovery flags.  `label` names the input in failures.
void ExpectLexersAgree(const std::string& input, const std::string& label) {
  DataStreamReader current{std::string(input)};
  BaselineDataStreamReader baseline{std::string(input)};
  using Kind = DataStreamReader::Token::Kind;
  using BaseKind = BaselineDataStreamReader::Token::Kind;

  for (size_t step = 0; step < input.size() + 64; ++step) {
    DataStreamReader::Token got = current.Next();
    BaselineDataStreamReader::Token want = baseline.Next();
    SCOPED_TRACE(label + " token #" + std::to_string(step) + " @" +
                 std::to_string(want.offset));
    ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind))
        << "zero-copy lexer produced " << KindName(got.kind);
    ASSERT_EQ(got.text, want.text);
    ASSERT_EQ(got.type, want.type);
    ASSERT_EQ(got.id, want.id);
    ASSERT_EQ(got.offset, want.offset);
    ASSERT_EQ(current.depth(), baseline.depth());
    if (got.kind == Kind::kEof) {
      ASSERT_EQ(want.kind, BaseKind::kEof);
      break;
    }
  }

  EXPECT_EQ(current.truncated(), baseline.truncated()) << label;
  EXPECT_EQ(current.saw_malformed(), baseline.saw_malformed()) << label;
  ASSERT_EQ(current.diagnostics().size(), baseline.diagnostics().size()) << label;
  for (size_t i = 0; i < current.diagnostics().size(); ++i) {
    SCOPED_TRACE(label + " diagnostic #" + std::to_string(i));
    EXPECT_EQ(current.diagnostics()[i].code, baseline.diagnostics()[i].code);
    EXPECT_EQ(current.diagnostics()[i].offset, baseline.diagnostics()[i].offset);
    EXPECT_EQ(current.diagnostics()[i].message, baseline.diagnostics()[i].message);
  }
}

class DatastreamDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardModules();
    Loader::Instance().Require("text");
    Loader::Instance().Require("table");
    Loader::Instance().Require("drawing");
    Loader::Instance().Require("equation");
    Loader::Instance().Require("raster");
  }
};

TEST_F(DatastreamDifferential, SixtyFourSeedCleanDocumentSweep) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ExpectLexersAgree(GenerateSerializedDocument(seed),
                      "seed " + std::to_string(seed) + " clean");
  }
}

TEST_F(DatastreamDifferential, SixtyFourSeedTruncationSweep) {
  // Chop every seeded document at each quartile and one byte short — the
  // truncation paths (mid-text, mid-directive, mid-marker) must recover
  // identically, including the "N marker(s) still open" diagnostics.
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::string full = GenerateSerializedDocument(seed);
    for (size_t cut : {full.size() / 4, full.size() / 2, 3 * full.size() / 4,
                       full.size() - 1}) {
      ExpectLexersAgree(full.substr(0, cut), "seed " + std::to_string(seed) +
                                                 " cut@" + std::to_string(cut));
    }
  }
}

TEST_F(DatastreamDifferential, SixtyFourSeedCorruptionSweep) {
  // The fault-injection workload mangles markers, drops bytes, and flips
  // characters; both lexers must diagnose the damage identically, and the
  // salvager's repair of that damage must re-read clean through the
  // zero-copy reader exactly as it did through the old one.
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    CorruptionScenario scenario = RunCorruptionScenario(seed);
    ExpectLexersAgree(scenario.corrupted,
                      "seed " + std::to_string(seed) + " corrupted");
    ExpectLexersAgree(scenario.salvaged,
                      "seed " + std::to_string(seed) + " salvaged");

    // Salvage-report equivalence: salvaging the same bytes again must see the
    // same damage (the salvager consumes reader diagnostics downstream), and
    // salvaged output must parse with no diagnostics in the new reader.
    SalvageReport report;
    DataStreamSalvager salvager;
    std::string resalvaged = salvager.Salvage(scenario.corrupted, &report);
    EXPECT_EQ(resalvaged, scenario.salvaged) << "seed " << seed;
    DataStreamReader clean_check{std::string(scenario.salvaged)};
    while (clean_check.Next().kind != DataStreamReader::Token::Kind::kEof) {
    }
    EXPECT_TRUE(clean_check.diagnostics().empty()) << "seed " << seed;
    EXPECT_FALSE(clean_check.truncated()) << "seed " << seed;
  }
}

TEST_F(DatastreamDifferential, ZeroCopyInvariantOnWorkloadDocuments) {
  // Generated documents are escape-light; the bulk of their bytes must flow
  // through as pinned-buffer views, not arena copies.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::string full = GenerateSerializedDocument(seed);
    DataStreamReader reader{std::string(full)};
    while (reader.Next().kind != DataStreamReader::Token::Kind::kEof) {
    }
    EXPECT_LT(reader.scratch_bytes(), full.size() / 4)
        << "seed " << seed << ": unescape arena copied too much";
  }
}

}  // namespace
}  // namespace atk
