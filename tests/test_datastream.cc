// Unit tests for the §5 external representation: nested markers, escaping,
// skip-without-parse, truncation recovery, and the 7-bit/80-column posture.

#include <gtest/gtest.h>

#include <sstream>

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

}  // namespace
}  // namespace atk
