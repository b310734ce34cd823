// Unit tests for the §5 external representation: nested markers, escaping,
// skip-without-parse, truncation recovery, the 7-bit/80-column posture, and
// the directive argument parser the component read paths share.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/datastream/directive_args.h"
#include "src/datastream/reader.h"
#include "src/datastream/writer.h"

namespace atk {
namespace {

using Kind = DataStreamReader::Token::Kind;

std::string WriteNestedExample() {
  // The paper's §5 example: a table embedded in text.
  std::ostringstream out;
  DataStreamWriter w(out);
  w.BeginData("text");
  w.WriteText("text data ...\n");
  int64_t table_id = w.BeginData("table");
  w.WriteText("the table data goes here ...\n");
  w.EndData();
  w.WriteText("more text data ...\n");
  w.WriteViewReference("spread", table_id);
  w.WriteText("rest of text data ...\n");
  w.EndData();
  return out.str();
}

TEST(Writer, ProducesNestedMarkers) {
  std::string stream = WriteNestedExample();
  EXPECT_NE(stream.find("\\begindata{text,1}"), std::string::npos);
  EXPECT_NE(stream.find("\\begindata{table,2}"), std::string::npos);
  EXPECT_NE(stream.find("\\enddata{table,2}"), std::string::npos);
  EXPECT_NE(stream.find("\\view{spread,2}"), std::string::npos);
  EXPECT_NE(stream.find("\\enddata{text,1}"), std::string::npos);
  // Proper nesting: table's end before text's end.
  EXPECT_LT(stream.find("\\enddata{table,2}"), stream.find("\\enddata{text,1}"));
}

TEST(Writer, TracksDepthAndBalance) {
  std::ostringstream out;
  DataStreamWriter w(out);
  EXPECT_TRUE(w.balanced());
  w.BeginData("text");
  w.BeginData("table");
  EXPECT_EQ(w.depth(), 2);
  EXPECT_EQ(w.max_depth(), 2);
  w.EndData();
  w.EndData();
  EXPECT_TRUE(w.balanced());
}

TEST(Writer, EscapesBackslashes) {
  std::ostringstream out;
  DataStreamWriter w(out);
  w.WriteText("a\\b");
  EXPECT_EQ(out.str(), "a\\\\b");
}

TEST(Writer, HexEscapesNonAscii) {
  std::ostringstream out;
  DataStreamWriter w(out);
  std::string payload = "x";
  payload += static_cast<char>(0xE9);
  w.WriteText(payload);
  EXPECT_EQ(out.str(), "x\\x{e9}");
  EXPECT_TRUE(w.all_seven_bit());
}

TEST(Writer, TracksMaxLineLength) {
  std::ostringstream out;
  DataStreamWriter w(out);
  w.WriteLine("short");
  w.WriteLine(std::string(79, 'a'));
  EXPECT_EQ(w.max_line_length(), 79);
}

TEST(Reader, RoundTripsTheNestedExample) {
  DataStreamReader r(WriteNestedExample());
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kBeginData);
  EXPECT_EQ(t.type, "text");
  EXPECT_EQ(t.id, 1);
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kText);
  EXPECT_EQ(t.text, "text data ...\n");
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kBeginData);
  EXPECT_EQ(t.type, "table");
  EXPECT_EQ(r.depth(), 2);
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kText);
  EXPECT_EQ(t.text, "the table data goes here ...\n");
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kEndData);
  EXPECT_EQ(t.type, "table");
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kText);
  EXPECT_EQ(t.text, "more text data ...\n");
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kViewRef);
  EXPECT_EQ(t.type, "spread");
  EXPECT_EQ(t.id, 2);
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kText);
  EXPECT_EQ(t.text, "rest of text data ...\n");
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kEndData);
  EXPECT_EQ(t.type, "text");
  EXPECT_EQ(r.Next().kind, Kind::kEof);
  EXPECT_FALSE(r.truncated());
  EXPECT_FALSE(r.saw_malformed());
}

TEST(Reader, UnescapesBackslashAndHex) {
  DataStreamReader r("a\\\\b\\x{41}c");
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kText);
  EXPECT_EQ(t.text, "a\\bAc");
}

TEST(Reader, PayloadTextRoundTripsByteExact) {
  // Arbitrary payload (with backslashes, braces, high bytes) written through
  // WriteText must come back identical.
  std::string payload = "line1\nline\\two{with}braces\t";
  payload += static_cast<char>(0x07);
  payload += static_cast<char>(0xFE);
  std::ostringstream out;
  DataStreamWriter w(out);
  w.BeginData("text");
  w.WriteText(payload);
  w.EndData();

  DataStreamReader r(out.str());
  ASSERT_EQ(r.Next().kind, Kind::kBeginData);
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kText);
  EXPECT_EQ(t.text, payload);
  EXPECT_EQ(r.Next().kind, Kind::kEndData);
}

TEST(Reader, SkipObjectWithoutParsing) {
  DataStreamReader r(WriteNestedExample());
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kBeginData);
  std::string_view raw;
  EXPECT_TRUE(r.SkipObject(t.type, t.id, &raw));
  // The raw body contains the nested table markers verbatim.
  EXPECT_NE(raw.find("\\begindata{table,2}"), std::string::npos);
  EXPECT_NE(raw.find("\\enddata{table,2}"), std::string::npos);
  EXPECT_EQ(r.Next().kind, Kind::kEof);
  EXPECT_FALSE(r.truncated());
}

TEST(Reader, SkipInnerObjectOnly) {
  DataStreamReader r(WriteNestedExample());
  ASSERT_EQ(r.Next().kind, Kind::kBeginData);  // text
  ASSERT_EQ(r.Next().kind, Kind::kText);
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kBeginData);  // table
  EXPECT_TRUE(r.SkipObject(t.type, t.id));
  // We resume inside the text object.
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kText);
  EXPECT_EQ(t.text, "more text data ...\n");
}

TEST(Reader, SkippedRawBodyReEmitsVerbatim) {
  std::string original = WriteNestedExample();
  DataStreamReader r(original);
  DataStreamReader::Token t = r.Next();
  std::string_view raw;
  ASSERT_TRUE(r.SkipObject(t.type, t.id, &raw));
  // Re-emit through a writer as an unknown object.
  std::ostringstream out;
  DataStreamWriter w(out);
  w.BeginDataWithId("text", 1);
  w.WriteRaw(raw);
  w.EndData();
  EXPECT_EQ(out.str(), original);
}

TEST(Reader, TruncatedStreamIsDetectedAndParseSurvives) {
  std::string stream = WriteNestedExample();
  stream.resize(stream.size() / 2);  // Chop mid-way.
  DataStreamReader r(std::move(stream));
  int begin_count = 0;
  int text_chars = 0;
  while (true) {
    DataStreamReader::Token t = r.Next();
    if (t.kind == Kind::kEof) {
      break;
    }
    if (t.kind == Kind::kBeginData) {
      ++begin_count;
    }
    if (t.kind == Kind::kText) {
      text_chars += static_cast<int>(t.text.size());
    }
  }
  EXPECT_TRUE(r.truncated());
  EXPECT_GE(begin_count, 1);
  EXPECT_GT(text_chars, 0);
}

TEST(Reader, TruncatedSkipReportsFailure) {
  std::string stream = "\\begindata{blob,5}\nsome data with no end";
  DataStreamReader r(std::move(stream));
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kBeginData);
  std::string_view raw;
  EXPECT_FALSE(r.SkipObject("blob", 5, &raw));
  EXPECT_TRUE(r.truncated());
  EXPECT_EQ(raw, "some data with no end");
}

TEST(Reader, MismatchedEndDataIsRecovered) {
  std::string stream = "\\begindata{text,1}\nabc\\enddata{table,9}\n";
  DataStreamReader r(std::move(stream));
  EXPECT_EQ(r.Next().kind, Kind::kBeginData);
  EXPECT_EQ(r.Next().kind, Kind::kText);
  EXPECT_EQ(r.Next().kind, Kind::kEndData);
  EXPECT_TRUE(r.saw_malformed());
}

TEST(Reader, LoneBackslashIsLiteralText) {
  DataStreamReader r("a\\ b");
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kText);
  EXPECT_EQ(t.text, "a\\ b");
  EXPECT_TRUE(r.saw_malformed());
}

TEST(Reader, UnknownDirectiveSurfacesNameAndArgs) {
  DataStreamReader r("\\textstyle{bold,3}rest");
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kDirective);
  EXPECT_EQ(t.type, "textstyle");
  EXPECT_EQ(t.text, "bold,3");
  t = r.Next();
  ASSERT_EQ(t.kind, Kind::kText);
  EXPECT_EQ(t.text, "rest");
}

TEST(Reader, PeekDoesNotConsume) {
  DataStreamReader r("hello");
  EXPECT_EQ(r.Peek().kind, Kind::kText);
  EXPECT_EQ(r.Peek().text, "hello");
  DataStreamReader::Token t = r.Next();
  EXPECT_EQ(t.text, "hello");
  EXPECT_EQ(r.Next().kind, Kind::kEof);
}

TEST(Reader, SkipObjectAfterPeekRewindsOverPeekedToken) {
  // Pre-PR-5 footgun: Peek lexed a token past the begindata marker, and
  // SkipObject silently dropped it — the peeked bytes vanished from the
  // skipped body.  The reader now rewinds, so the body is complete.
  std::string original = WriteNestedExample();
  DataStreamReader r(original);
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kBeginData);
  // Peek into the object body before deciding to skip it.
  EXPECT_EQ(r.Peek().kind, Kind::kText);
  std::string_view raw;
  ASSERT_TRUE(r.SkipObject(t.type, t.id, &raw));
  // The peeked text is part of the skipped body, from its first byte.
  EXPECT_EQ(raw.substr(0, 13), "text data ...");
  std::ostringstream out;
  DataStreamWriter w(out);
  w.BeginDataWithId("text", 1);
  w.WriteRaw(raw);
  w.EndData();
  EXPECT_EQ(out.str(), original);
  EXPECT_EQ(r.Next().kind, Kind::kEof);
}

TEST(Reader, SkipObjectAfterPeekedEndDataRewinds) {
  // Peeking the object's own \enddata pops the marker stack; the rewind must
  // push the marker back so SkipObject still finds the closing marker.
  DataStreamReader r("\\begindata{text,1}\n\\textstyle{bold,0,1}\\enddata{text,1}\nafter");
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kBeginData);
  ASSERT_EQ(r.Next().kind, Kind::kDirective);
  EXPECT_EQ(r.Peek().kind, Kind::kEndData);
  EXPECT_EQ(r.depth(), 0);  // The peeked \enddata popped the marker...
  ASSERT_TRUE(r.SkipObject("text", 1));  // ...and the rewind restored it.
  DataStreamReader::Token after = r.Next();
  ASSERT_EQ(after.kind, Kind::kText);
  EXPECT_EQ(after.text, "after");
  EXPECT_FALSE(r.truncated());
  EXPECT_TRUE(r.diagnostics().empty());
}

TEST(Reader, EscapeFreeInputTokenizesWithoutScratchCopies) {
  // The zero-copy invariant: tokens over escape-free input are views into
  // the pinned buffer; the unescape arena stays untouched.
  std::string stream = WriteNestedExample();
  const char* base = stream.data();
  DataStreamReader r(std::move(stream));
  size_t text_bytes = 0;
  while (true) {
    DataStreamReader::Token t = r.Next();
    if (t.kind == Kind::kEof) {
      break;
    }
    if (t.kind == Kind::kText) {
      text_bytes += t.text.size();
      // The view aliases the pinned input buffer itself.
      EXPECT_GE(t.text.data(), base);
      EXPECT_LT(t.text.data(), base + r.input_size());
    }
  }
  EXPECT_GT(text_bytes, 0u);
  EXPECT_EQ(r.scratch_bytes(), 0u);
}

TEST(Reader, IstreamConstructorReadsToEof) {
  std::string original = WriteNestedExample();
  std::istringstream in(original);
  DataStreamReader r(in);
  EXPECT_EQ(r.input_size(), original.size());
  ASSERT_EQ(r.Next().kind, Kind::kBeginData);
  std::string_view raw;
  ASSERT_TRUE(r.SkipObject("text", 1, &raw));
  EXPECT_FALSE(r.truncated());
}

TEST(Reader, DeeplyNestedStreamsBalance) {
  std::ostringstream out;
  DataStreamWriter w(out);
  constexpr int kDepth = 40;
  for (int i = 0; i < kDepth; ++i) {
    w.BeginData("text");
    w.WriteText("level\n");
  }
  for (int i = 0; i < kDepth; ++i) {
    w.EndData();
  }
  ASSERT_TRUE(w.balanced());
  DataStreamReader r(out.str());
  int max_depth = 0;
  while (true) {
    DataStreamReader::Token t = r.Next();
    if (t.kind == Kind::kEof) {
      break;
    }
    max_depth = std::max(max_depth, r.depth());
  }
  EXPECT_EQ(max_depth, kDepth);
  EXPECT_FALSE(r.truncated());
}

TEST(Reader, EscapedBackslashCannotFakeAMarker) {
  // "\\begindata{x,1}" is a literal backslash followed by plain text, not a
  // marker; SkipObject must not be confused by it.
  std::ostringstream out;
  DataStreamWriter w(out);
  w.BeginData("text");
  w.WriteText("\\begindata{x,1} this is payload, not a marker\n");
  w.EndData();
  DataStreamReader r(out.str());
  DataStreamReader::Token t = r.Next();
  ASSERT_EQ(t.kind, Kind::kBeginData);
  std::string_view raw;
  EXPECT_TRUE(r.SkipObject("text", t.id, &raw));
  EXPECT_EQ(r.Next().kind, Kind::kEof);
  EXPECT_FALSE(r.truncated());
}

TEST(Reader, SkipObjectIsLinearInUnterminatedDirectives) {
  // Every "\\a{" below is an unterminated directive.  The skip used to look
  // for its '}' through the rest of the input, quadratic in their count.
  std::string lines;
  for (int i = 0; i < 500000; ++i) {
    lines += "\\a{\n";
  }
  std::string one_line;
  for (int i = 0; i < 250000; ++i) {
    one_line += "\\a{";
  }
  one_line += "\n";
  for (const std::string& body : {lines, one_line}) {
    DataStreamReader r("\\begindata{text,1}\n" + body + "\\enddata{text,1}\n");
    ASSERT_EQ(r.Next().kind, Kind::kBeginData);
    std::string_view raw;
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(r.SkipObject("text", 1, &raw));
    std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), 1.0) << body.size() << " bytes";
    EXPECT_EQ(raw, body);
    EXPECT_EQ(r.Next().kind, Kind::kEof);
    EXPECT_TRUE(r.diagnostics().empty());
  }
}

// ---- DirectiveArgs against sscanf / istringstream ------------------------------------

// Argument texts the parser must read exactly as the C library does: writer
// output, then signs, blanks, missing fields and trailing junk.
const char* const kArgTexts[] = {
    // Writer output (\dimensions, \cell, \shape's numeric tail, \rasterdim).
    "3,4", "0,0", "16,12", "128,8", "2,1,text", "2,1,number", "2,1,formula",
    "1,-40,-7,30,12", "2,10,20,-30,-40", "2147483647,-2147483648",
    // Negatives, a leading '+', leading blanks.
    "-1,-2", "-0,5", "+5,+6", "5,+6", " 5,6", "5, 6", "\t5,\n6", "  -5,  +6",
    "\v\f\r7,8",
    // Missing fields.
    "", "5", "5,", ",5", "5,,6", "-", "+", "- 5,6", "+-5,6", "5 ,6", "a,1", " ",
    // Trailing junk.
    "5,6xyz", "5,6,", "5,6 7", "5x,6", "5.5,6", "5,6.5", "5,6,7,8,9,10",
};

// Up to five ints read by `format` ("%d,%d,..."), the way the component
// read paths used to.
std::vector<int> ScanInts(const char* text, int fields) {
  std::string format;
  for (int i = 0; i < fields; ++i) {
    format += i == 0 ? "%d" : ",%d";
  }
  int v[5] = {0, 0, 0, 0, 0};
  int n = std::sscanf(text, format.c_str(), &v[0], &v[1], &v[2], &v[3], &v[4]);
  return std::vector<int>(v, v + std::max(n, 0));
}

std::vector<int> ParseInts(std::string_view text, int fields) {
  DirectiveArgs args(text);
  std::vector<int> values;
  int value = 0;
  while (static_cast<int>(values.size()) < fields && args.Int(value)) {
    values.push_back(value);
  }
  return values;
}

TEST(DirectiveArgs, IntsMatchSscanf) {
  for (const char* text : kArgTexts) {
    for (int fields = 1; fields <= 5; ++fields) {
      EXPECT_EQ(ParseInts(text, fields), ScanInts(text, fields))
          << "\"" << text << "\" with " << fields << " fields";
    }
  }
}

TEST(DirectiveArgs, TrailingWordMatchesSscanf) {
  const char* const kCells[] = {
      "2,1,text", "2,1,number", "2,1,formula", "2,1, text", "2,1,text junk", "2,1,te,xt",
      "-2,+1,number", "2,1,", "2,1", "2,1,  ", "2,1x,text", "",
  };
  for (const char* text : kCells) {
    int r = 0;
    int c = 0;
    char word[16] = {0};
    int scanned = std::sscanf(text, "%d,%d,%15s", &r, &c, word);
    DirectiveArgs args(text);
    int pr = 0;
    int pc = 0;
    std::string_view pword;
    bool parsed = args.Int(pr) && args.Int(pc) && args.Word(pword);
    EXPECT_EQ(parsed, scanned == 3) << "\"" << text << "\"";
    if (parsed && scanned == 3) {
      EXPECT_EQ(pr, r) << text;
      EXPECT_EQ(pc, c) << text;
      EXPECT_EQ(pword, word) << text;
    }
  }
}

// \shape{line,...}: the kind up to the first comma, then the width and
// x,y pairs, as the drawing reader's istringstream took them.
TEST(DirectiveArgs, ShapeFieldsMatchIstringstream) {
  const char* const kShapes[] = {
      "line,1,0,0,10,10", "poly,2,5,5,-10,20,30,-40", "line,1,-4,7", "line,1,0,0,10",
      "line,1", "line,+3, 4,-5", "line,1,0,0,10,10xyz", "line,1,0,0,10,10,",
      "rect,1,-40,-7,30,12",
  };
  for (const char* text : kShapes) {
    std::istringstream in{std::string(text)};
    std::string kind;
    std::getline(in, kind, ',');
    std::vector<int> expected;
    int width = 0;
    if (in >> width) {
      expected.push_back(width);
      char comma;
      int x = 0;
      int y = 0;
      while (in >> comma >> x >> comma >> y) {
        expected.push_back(x);
        expected.push_back(y);
      }
    }
    DirectiveArgs args(text);
    std::string_view name;
    ASSERT_TRUE(args.Name(name));
    EXPECT_EQ(name, kind) << text;
    std::vector<int> parsed;
    int value = 0;
    if (args.Int(value)) {
      parsed.push_back(value);
      int x = 0;
      int y = 0;
      while (args.Int(x) && args.Int(y)) {
        parsed.push_back(x);
        parsed.push_back(y);
      }
    }
    EXPECT_EQ(parsed, expected) << text;
  }
}

TEST(DirectiveArgs, RejectsValuesOutsideTheTargetRange) {
  const char* const kTooBigForInt[] = {
      "2147483648", "-2147483649", "99999999999", "+2147483648", "4294967296",
      "18446744073709551616", "99999999999999999999999",
  };
  for (const char* text : kTooBigForInt) {
    int value = 7;
    EXPECT_FALSE(DirectiveArgs(text).Int(value)) << text;
    EXPECT_EQ(value, 7) << "a rejected field must leave its output untouched: " << text;
  }
  int value = 0;
  EXPECT_TRUE(DirectiveArgs("2147483647").Int(value));
  EXPECT_EQ(value, std::numeric_limits<int>::max());
  EXPECT_TRUE(DirectiveArgs("-2147483648").Int(value));
  EXPECT_EQ(value, std::numeric_limits<int>::min());

  int64_t wide = 0;
  EXPECT_TRUE(DirectiveArgs("-9223372036854775808").Int(wide));
  EXPECT_EQ(wide, std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(DirectiveArgs("9223372036854775807").Int(wide));
  EXPECT_EQ(wide, std::numeric_limits<int64_t>::max());
  EXPECT_FALSE(DirectiveArgs("9223372036854775808").Int(wide));
  EXPECT_FALSE(DirectiveArgs("-9223372036854775809").Int(wide));

  // A rejected field ends the parse: later fields are not read.
  DirectiveArgs args("1,99999999999,3");
  int first = 0;
  int rest = 0;
  EXPECT_TRUE(args.Int(first));
  EXPECT_FALSE(args.Int(rest));
  EXPECT_FALSE(args.Int(rest));
}

TEST(FieldParser, StrictDecimalFieldsRejectAnythingButInRangeDigits) {
  uint64_t u = 7;
  EXPECT_TRUE(ParseU64("0", &u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(ParseU64("0042", &u));
  EXPECT_EQ(u, 42u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  for (const char* bad : {"", " 1", "1 ", "+1", "-1", "-0", "1x", "0x10", "1.5",
                          "18446744073709551616", "99999999999999999999"}) {
    u = 7;
    EXPECT_FALSE(ParseU64(bad, &u)) << bad;
    EXPECT_EQ(u, 7u) << "a rejected field must leave its output untouched: " << bad;
  }

  int64_t i = 7;
  EXPECT_TRUE(ParseI64("-0", &i));
  EXPECT_EQ(i, 0);
  EXPECT_TRUE(ParseI64("-9223372036854775808", &i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(ParseI64("9223372036854775807", &i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::max());
  for (const char* bad : {"", "-", "--1", "+1", " -1", "-1 ", "- 1",
                          "9223372036854775808", "-9223372036854775809"}) {
    i = 7;
    EXPECT_FALSE(ParseI64(bad, &i)) << bad;
    EXPECT_EQ(i, 7) << bad;
  }
}

TEST(FieldParser, SplitArgsAndJoinAreInverse) {
  EXPECT_EQ(SplitArgs(""), std::vector<std::string_view>{""});
  EXPECT_EQ(SplitArgs("1,,a.b"), (std::vector<std::string_view>{"1", "", "a.b"}));
  EXPECT_EQ(SplitArgs("a,"), (std::vector<std::string_view>{"a", ""}));
  EXPECT_EQ(Join({"1", "", "a.b"}), "1,,a.b");
  EXPECT_EQ(Join({"", "x"}), ",x");
  EXPECT_EQ(Join({}), "");
}

}  // namespace
}  // namespace atk
