// Tests for the text component: gap buffer, TextData (styles, embedding,
// external representation), TextView (layout, editing, selection, hit
// testing, scrolling) and PagedTextView.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/standard_modules.h"
#include "src/base/interaction_manager.h"
#include "src/class_system/loader.h"
#include "src/components/frame/unknown_view.h"
#include "src/components/raster/raster_data.h"
#include "src/components/text/gap_buffer.h"
#include "src/components/text/paged_text_view.h"
#include "src/components/text/text_data.h"
#include "src/components/text/text_view.h"
#include "src/wm/window_system.h"

namespace atk {
namespace {

// ---- GapBuffer -------------------------------------------------------------

TEST(GapBuffer, InsertAndRead) {
  GapBuffer buffer;
  buffer.Insert(0, "hello");
  EXPECT_EQ(buffer.size(), 5);
  EXPECT_EQ(buffer.All(), "hello");
  buffer.Insert(5, " world");
  EXPECT_EQ(buffer.All(), "hello world");
  buffer.Insert(5, ",");
  EXPECT_EQ(buffer.All(), "hello, world");
  EXPECT_EQ(buffer.At(0), 'h');
  EXPECT_EQ(buffer.At(11), 'd');
}

TEST(GapBuffer, DeleteRanges) {
  GapBuffer buffer;
  buffer.Insert(0, "hello, world");
  buffer.Delete(5, 2);
  EXPECT_EQ(buffer.All(), "helloworld");
  buffer.Delete(0, 5);
  EXPECT_EQ(buffer.All(), "world");
  buffer.Delete(3, 100);  // Over-long delete clamps.
  EXPECT_EQ(buffer.All(), "wor");
}

TEST(GapBuffer, GrowsPastInitialCapacity) {
  GapBuffer buffer;
  std::string big(1000, 'x');
  buffer.Insert(0, big);
  buffer.Insert(500, "MID");
  EXPECT_EQ(buffer.size(), 1003);
  EXPECT_EQ(buffer.Substr(500, 3), "MID");
}

TEST(GapBuffer, FindAndRFind) {
  GapBuffer buffer;
  buffer.Insert(0, "one\ntwo\nthree");
  EXPECT_EQ(buffer.Find('\n', 0), 3);
  EXPECT_EQ(buffer.Find('\n', 4), 7);
  EXPECT_EQ(buffer.Find('\n', 8), -1);
  EXPECT_EQ(buffer.RFind('\n', 7), 3);
  EXPECT_EQ(buffer.RFind('\n', 13), 7);
  EXPECT_EQ(buffer.RFind('\n', 3), -1);
}

TEST(GapBuffer, GapMovesWithEdits) {
  GapBuffer buffer;
  buffer.Insert(0, "abcdef");
  buffer.Insert(3, "X");  // Gap at 4.
  EXPECT_EQ(buffer.gap_position(), 4);
  buffer.Insert(1, "Y");  // Gap moved left.
  EXPECT_EQ(buffer.All(), "aYbcXdef");
}

// Property: a GapBuffer and a std::string given the same operations agree.
TEST(GapBuffer, MatchesReferenceStringUnderRandomOps) {
  GapBuffer buffer;
  std::string reference;
  uint64_t state = 12345;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int step = 0; step < 2000; ++step) {
    if (reference.empty() || next() % 3 != 0) {
      size_t pos = reference.empty() ? 0 : next() % (reference.size() + 1);
      std::string chunk(1 + next() % 5, static_cast<char>('a' + next() % 26));
      buffer.Insert(static_cast<int64_t>(pos), chunk);
      reference.insert(pos, chunk);
    } else {
      size_t pos = next() % reference.size();
      size_t len = 1 + next() % 4;
      buffer.Delete(static_cast<int64_t>(pos), static_cast<int64_t>(len));
      reference.erase(pos, std::min(len, reference.size() - pos));
    }
  }
  EXPECT_EQ(buffer.All(), reference);
  EXPECT_EQ(buffer.size(), static_cast<int64_t>(reference.size()));
}

// Appending with the gap already at the end leaves no tail to move when the
// buffer grows; the move's destination is then one past the last element.
TEST(GapBuffer, AppendsPastCapacityWithTheGapAtTheEnd) {
  GapBuffer buffer;
  std::string reference;
  size_t grows = 0;
  for (int i = 0; i < 200; ++i) {
    size_t capacity = buffer.capacity();
    std::string chunk(7, static_cast<char>('a' + i % 26));
    buffer.Append(chunk);
    reference += chunk;
    ASSERT_EQ(buffer.gap_position(), buffer.size());
    grows += buffer.capacity() > capacity ? 1 : 0;
  }
  EXPECT_GE(grows, 4u);
  EXPECT_EQ(buffer.All(), reference);
}

// Find/RFind search the two halves around the gap; they must agree with
// std::string wherever the gap sits, including at either end of a hit.
TEST(GapBuffer, FindAndRFindMatchStringWhereverTheGapSits) {
  const std::string text = "\nab\n\ncd\nefgh\n\nij\n";
  for (size_t gap = 0; gap <= text.size(); ++gap) {
    GapBuffer buffer;
    buffer.Insert(0, text);
    buffer.Insert(static_cast<int64_t>(gap), "#");
    buffer.Delete(static_cast<int64_t>(gap), 1);  // Leaves the gap at `gap`.
    ASSERT_EQ(buffer.gap_position(), static_cast<int64_t>(gap));
    for (int64_t pos = -1; pos <= static_cast<int64_t>(text.size()) + 1; ++pos) {
      size_t from = static_cast<size_t>(std::max<int64_t>(pos, 0));
      size_t found = text.find('\n', from);
      EXPECT_EQ(buffer.Find('\n', pos), found == std::string::npos ? -1 : int64_t(found))
          << "gap " << gap << " pos " << pos;
      int64_t before = std::min<int64_t>(pos, static_cast<int64_t>(text.size()));
      size_t rfound = before <= 0 ? std::string::npos
                                  : text.rfind('\n', static_cast<size_t>(before - 1));
      EXPECT_EQ(buffer.RFind('\n', pos), rfound == std::string::npos ? -1 : int64_t(rfound))
          << "gap " << gap << " pos " << pos;
    }
  }
}

// ---- TextData ----------------------------------------------------------------

class TextDataTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardModules();
    Loader::Instance().Require("text");
  }
  TextData text_;
};

TEST_F(TextDataTest, InsertDeleteAndLineBookkeeping) {
  text_.InsertString(0, "one\ntwo\nthree\n");
  EXPECT_EQ(text_.size(), 14);
  EXPECT_EQ(text_.LineCount(), 4);  // Trailing newline opens a 4th line.
  EXPECT_EQ(text_.PosOfLine(1), 4);
  EXPECT_EQ(text_.LineOfPos(5), 1);
  EXPECT_EQ(text_.LineStart(5), 4);
  EXPECT_EQ(text_.LineEnd(5), 7);
  text_.DeleteRange(3, 1);  // Remove the first newline.
  EXPECT_EQ(text_.LineCount(), 3);
  EXPECT_EQ(text_.GetAllText(), "onetwo\nthree\n");
}

TEST_F(TextDataTest, ChangeNotificationsCarryPositions) {
  struct Recorder : Observer {
    void ObservedChanged(Observable*, const Change& change) override { changes.push_back(change); }
    std::vector<Change> changes;
  } recorder;
  text_.AddObserver(&recorder);
  text_.InsertString(0, "hello");
  text_.DeleteRange(1, 2);
  ASSERT_EQ(recorder.changes.size(), 2u);
  EXPECT_EQ(recorder.changes[0].kind, Change::Kind::kInserted);
  EXPECT_EQ(recorder.changes[0].pos, 0);
  EXPECT_EQ(recorder.changes[0].added, 5);
  EXPECT_EQ(recorder.changes[1].kind, Change::Kind::kDeleted);
  EXPECT_EQ(recorder.changes[1].pos, 1);
  EXPECT_EQ(recorder.changes[1].removed, 2);
  text_.RemoveObserver(&recorder);
}

TEST_F(TextDataTest, StyleRunsSplitAndMerge) {
  text_.InsertString(0, "the quick brown fox");
  text_.ApplyStyle(4, 5, "bold");  // "quick"
  EXPECT_EQ(text_.StyleNameAt(4), "bold");
  EXPECT_EQ(text_.StyleNameAt(8), "bold");
  EXPECT_EQ(text_.StyleNameAt(9), "default");
  EXPECT_EQ(text_.StyleNameAt(3), "default");
  // Overlapping application splits correctly.
  text_.ApplyStyle(7, 8, "italic");  // "ck brown"
  EXPECT_EQ(text_.StyleNameAt(5), "bold");
  EXPECT_EQ(text_.StyleNameAt(7), "italic");
  EXPECT_EQ(text_.StyleNameAt(14), "italic");
  EXPECT_EQ(text_.StyleNameAt(15), "default");
  // Clearing restores default.
  text_.ClearStyles(0, text_.size());
  EXPECT_TRUE(text_.style_runs().empty());
}

TEST_F(TextDataTest, StylesFollowEdits) {
  text_.InsertString(0, "abcdef");
  text_.ApplyStyle(2, 2, "bold");  // "cd"
  text_.InsertString(0, "XY");     // Shifts runs right.
  EXPECT_EQ(text_.StyleNameAt(4), "bold");
  EXPECT_EQ(text_.StyleNameAt(2), "default");
  text_.InsertString(5, "!");      // Inside the styled run: extends it.
  EXPECT_EQ(text_.StyleNameAt(5), "bold");
  text_.DeleteRange(0, 4);         // Delete through the run's start.
  EXPECT_EQ(text_.StyleNameAt(0), "bold");
}

TEST_F(TextDataTest, EmbeddedObjectsTrackPositions) {
  text_.InsertString(0, "before after");
  auto raster = std::make_unique<RasterData>(4, 4);
  DataObject* embedded = text_.InsertObject(6, std::move(raster));
  ASSERT_NE(embedded, nullptr);
  EXPECT_EQ(text_.size(), 13);
  EXPECT_EQ(text_.CharAt(6), TextData::kObjectChar);
  ASSERT_NE(text_.EmbeddedAt(6), nullptr);
  EXPECT_EQ(text_.EmbeddedAt(6)->data.get(), embedded);
  EXPECT_EQ(text_.EmbeddedAt(6)->view_type, "rasterview");
  // Edits before the anchor shift it.
  text_.InsertString(0, "xx");
  EXPECT_EQ(text_.EmbeddedAt(8)->data.get(), embedded);
  // Deleting over the anchor removes the object.
  text_.DeleteRange(7, 3);
  EXPECT_EQ(text_.embedded_count(), 0u);
}

TEST_F(TextDataTest, PlainRoundTrip) {
  text_.InsertString(0, "hello\nworld with \\backslash\\ and {braces}\n");
  text_.ApplyStyle(0, 5, "bold");
  std::string doc = WriteDocument(text_);
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(doc, &ctx);
  ASSERT_NE(read, nullptr);
  TextData* back = ObjectCast<TextData>(read.get());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->GetAllText(), text_.GetAllText());
  EXPECT_EQ(back->StyleNameAt(0), "bold");
  EXPECT_EQ(back->StyleNameAt(5), "default");
  EXPECT_TRUE(ctx.ok());
}

TEST_F(TextDataTest, EmbeddedRoundTripMatchesPaperExample) {
  text_.InsertString(0, "text data ...\n");
  auto raster = std::make_unique<RasterData>(4, 4);
  raster->Set(1, 1, true);
  text_.InsertObject(text_.size(), std::move(raster));
  text_.InsertString(text_.size(), "more text data ...\n");

  std::string doc = WriteDocument(text_);
  // §5's structure: nested begindata/enddata plus a \view placement.
  EXPECT_NE(doc.find("\\begindata{text,1}"), std::string::npos);
  EXPECT_NE(doc.find("\\begindata{raster,2}"), std::string::npos);
  EXPECT_NE(doc.find("\\enddata{raster,2}"), std::string::npos);
  EXPECT_NE(doc.find("\\view{rasterview,2}"), std::string::npos);

  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(doc, &ctx);
  TextData* back = ObjectCast<TextData>(read.get());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->embedded_count(), 1u);
  const TextData::EmbeddedObject* embedded = &back->embedded_objects()[0];
  RasterData* back_raster = ObjectCast<RasterData>(embedded->data.get());
  ASSERT_NE(back_raster, nullptr);
  EXPECT_TRUE(back_raster->Get(1, 1));
  EXPECT_FALSE(back_raster->Get(0, 0));
  EXPECT_EQ(back->GetAllText(), text_.GetAllText());
}

TEST_F(TextDataTest, CustomStyleDefinitionsPersist) {
  Style fancy;
  fancy.name = "fancy";
  fancy.font = FontSpec{"andy", 20, kBold | kItalic};
  fancy.indent_left = 12;
  fancy.justify = Justification::kCenter;
  text_.styles().Define(fancy);
  text_.InsertString(0, "styled text");
  text_.ApplyStyle(0, 6, "fancy");
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(WriteDocument(text_), &ctx);
  TextData* back = ObjectCast<TextData>(read.get());
  ASSERT_NE(back, nullptr);
  ASSERT_TRUE(back->styles().Contains("fancy"));
  const Style& restored = back->styles().Get("fancy");
  EXPECT_EQ(restored.font.size, 20);
  EXPECT_EQ(restored.font.style, unsigned{kBold} | unsigned{kItalic});
  EXPECT_EQ(restored.indent_left, 12);
  EXPECT_EQ(restored.justify, Justification::kCenter);
  EXPECT_EQ(back->StyleNameAt(0), "fancy");
}

// ---- StyleSheet: per-document definitions over the shared standard sheet -----

const std::vector<std::string> kStandardStyleNames = {
    "bold",    "bolditalic", "center",     "default",   "heading",
    "italic",  "quotation",  "subheading", "typewriter",
};

TEST_F(TextDataTest, FreshTextHasOnlyTheStandardStylesAndWritesNone) {
  TextData fresh;
  fresh.InsertString(0, "plain prose\n");
  EXPECT_TRUE(fresh.styles().CustomStyles().empty());
  EXPECT_EQ(fresh.styles().Names(), kStandardStyleNames);
  for (const std::string& name : kStandardStyleNames) {
    EXPECT_TRUE(fresh.styles().Contains(name)) << name;
    EXPECT_EQ(fresh.styles().Get(name).name, name);
  }
  EXPECT_FALSE(fresh.styles().Contains("fancy"));
  EXPECT_EQ(&fresh.styles().Get("fancy"), &fresh.styles().Get("default"));
  EXPECT_EQ(fresh.styles().Get("heading").font.size, 20);
  EXPECT_EQ(WriteDocument(fresh).find("\\definestyle"), std::string::npos);
}

TEST_F(TextDataTest, DefineRestylesOneDocumentOnly) {
  TextData other;
  Style heading = text_.styles().Get("heading");
  heading.font.size = 40;
  text_.styles().Define(heading);
  Style fancy;
  fancy.name = "fancy";
  fancy.indent_left = 8;
  text_.styles().Define(fancy);
  Style plain = text_.styles().Get("default");
  plain.font.style = kItalic;
  text_.styles().Define(plain);

  EXPECT_EQ(text_.styles().Get("heading").font.size, 40);
  EXPECT_TRUE(text_.styles().Contains("fancy"));
  // Unknown names resolve to this document's (redefined) default.
  EXPECT_EQ(text_.styles().Get("nosuch").font.style, unsigned{kItalic});
  std::vector<std::string> names = kStandardStyleNames;
  names.insert(names.begin() + 4, "fancy");
  EXPECT_EQ(text_.styles().Names(), names);
  std::vector<std::string> custom;
  for (const Style* style : text_.styles().CustomStyles()) {
    custom.push_back(style->name);
  }
  EXPECT_EQ(custom, (std::vector<std::string>{"default", "fancy", "heading"}));

  // Neither a document that already existed nor one made afterwards (which
  // would see any change to the shared standard sheet) is touched.
  TextData later;
  for (const TextData* untouched : {&other, &later}) {
    EXPECT_EQ(untouched->styles().Get("heading").font.size, 20);
    EXPECT_EQ(untouched->styles().Get("default").font.style, unsigned{kPlain});
    EXPECT_FALSE(untouched->styles().Contains("fancy"));
    EXPECT_EQ(untouched->styles().Names(), kStandardStyleNames);
    EXPECT_TRUE(untouched->styles().CustomStyles().empty());
  }

  // Redefining a standard style back to its standard form makes it
  // non-custom again.
  heading.font.size = 20;
  text_.styles().Define(heading);
  custom.clear();
  for (const Style* style : text_.styles().CustomStyles()) {
    custom.push_back(style->name);
  }
  EXPECT_EQ(custom, (std::vector<std::string>{"default", "fancy"}));
}

TEST_F(TextDataTest, GetReferenceSurvivesARedefinitionOfTheSameName) {
  Style fancy;
  fancy.name = "fancy";
  fancy.indent_left = 4;
  text_.styles().Define(fancy);
  const Style& held = text_.styles().Get("fancy");
  fancy.indent_left = 9;
  text_.styles().Define(fancy);
  for (const char* name : {"aaa", "zzz", "heading", "default"}) {
    Style filler;
    filler.name = name;
    text_.styles().Define(filler);
  }
  EXPECT_EQ(&held, &text_.styles().Get("fancy"));
  EXPECT_EQ(held.indent_left, 9);
}

// The style at `pos` by definition: the first run in style_runs() order
// that contains it.
std::string LinearStyleNameAt(const TextData& text, int64_t pos) {
  for (const TextData::StyleRun& run : text.style_runs()) {
    if (pos >= run.pos && pos < run.pos + run.len) {
      return run.style;
    }
  }
  return "default";
}

void ExpectStyleNamesMatchLinearScan(const TextData& text) {
  for (int64_t pos = -1; pos <= text.size() + 1; ++pos) {
    ASSERT_EQ(text.StyleNameAt(pos), LinearStyleNameAt(text, pos)) << "pos " << pos;
  }
}

// Seeded random edits, checking every position after each one.
void RandomStyledEdits(TextData& text, uint64_t seed, int steps) {
  const char* const styles[] = {"bold", "italic", "heading", "default"};
  auto next = [&seed]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (int step = 0; step < steps; ++step) {
    int64_t size = text.size();
    int64_t pos = static_cast<int64_t>(next() % static_cast<uint64_t>(size + 1));
    int64_t len = 1 + static_cast<int64_t>(next() % 12);
    switch (next() % 3) {
      case 0:
        text.ApplyStyle(pos, len, styles[next() % 4]);
        break;
      case 1:
        text.InsertString(pos, std::string(static_cast<size_t>(len), 'x'));
        break;
      default:
        text.DeleteRange(pos, len);
        break;
    }
    ExpectStyleNamesMatchLinearScan(text);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST_F(TextDataTest, StyleNameAtMatchesLinearScanUnderRandomEdits) {
  for (uint64_t seed : {3u, 17u, 99u}) {
    TextData text;
    text.SetText(std::string(120, 'a'));
    RandomStyledEdits(text, seed, 400);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
}

// \textstyle runs read from a document are not validated: they may nest,
// overlap and share start positions.  The first run in order still wins.
TEST_F(TextDataTest, StyleNameAtMatchesLinearScanOnOverlappingDocumentRuns) {
  const std::string doc =
      "\\begindata{text,1}\n"
      "\\textstyle{bold,0,30}\n"
      "\\textstyle{italic,4,3}\n"
      "\\textstyle{heading,4,40}\n"
      "\\textstyle{subheading,10,2}\n"
      "\\textstyle{italic,10,5}\n"
      "\\textstyle{bold,50,5}\n"
      "\\textstyle{heading,52,1}\n"
      "0123456789012345678901234567890123456789012345678901234567890123456789\n"
      "\\enddata{text,1}\n";
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(doc, &ctx);
  TextData* text = ObjectCast<TextData>(read.get());
  ASSERT_NE(text, nullptr);
  ASSERT_EQ(text->style_runs().size(), 7u);
  ExpectStyleNamesMatchLinearScan(*text);
  // Position 8 lies inside the outer bold run, past the nested italic one
  // that starts later: a search keyed on run starts alone would miss it.
  EXPECT_EQ(text->StyleNameAt(8), "bold");
  EXPECT_EQ(text->StyleNameAt(35), "heading");
  EXPECT_EQ(text->StyleNameAt(53), "bold");
  RandomStyledEdits(*text, 5, 300);
}

TEST_F(TextDataTest, LineOfPosInvertsPosOfLineWhereverTheGapSits) {
  std::string content;
  for (int line = 0; line < 40; ++line) {
    content += std::string(static_cast<size_t>(line % 7), 'w') + "\n";
  }
  content += "tail";
  text_.SetText(content);
  for (int64_t gap : {int64_t{0}, text_.size() / 2, text_.size()}) {
    // An insert and delete of one character leaves the gap at `gap`.
    text_.InsertString(gap, "#");
    text_.DeleteRange(gap, 1);
    ASSERT_EQ(text_.GetAllText(), content);
    ASSERT_EQ(text_.LineCount(), 41);
    for (int64_t k = 0; k < text_.LineCount(); ++k) {
      EXPECT_EQ(text_.LineOfPos(text_.PosOfLine(k)), k) << "gap " << gap << " line " << k;
    }
    int64_t newlines = 0;
    for (int64_t pos = 0; pos <= text_.size(); ++pos) {
      EXPECT_EQ(text_.LineOfPos(pos), newlines) << "gap " << gap << " pos " << pos;
      newlines += pos < text_.size() && content[static_cast<size_t>(pos)] == '\n' ? 1 : 0;
    }
  }
}

// ---- TextView --------------------------------------------------------------------

class TextViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardModules();
    Loader::Instance().Require("text");
    ws_ = WindowSystem::Open("itc");
    im_ = InteractionManager::Create(*ws_, 300, 120, "text test");
    view_ = std::make_unique<TextView>();
    view_->SetText(&text_);
    im_->SetChild(view_.get());
    im_->SetInputFocus(view_.get());
    im_->RunOnce();
  }

  void Pump() { im_->RunOnce(); }
  void Type(const std::string& keys) {
    for (char ch : keys) {
      im_->window()->Inject(InputEvent::KeyPress(ch));
    }
    Pump();
  }

  TextData text_;
  std::unique_ptr<WindowSystem> ws_;
  std::unique_ptr<InteractionManager> im_;
  std::unique_ptr<TextView> view_;
};

TEST_F(TextViewTest, TypingInsertsAtCaret) {
  Type("hello");
  EXPECT_EQ(text_.GetAllText(), "hello");
  EXPECT_EQ(view_->dot_pos(), 5);
  Type("\rworld");
  EXPECT_EQ(text_.GetAllText(), "hello\nworld");
}

TEST_F(TextViewTest, BackspaceDeletes) {
  Type("abc");
  Type("\177");
  EXPECT_EQ(text_.GetAllText(), "ab");
  EXPECT_EQ(view_->dot_pos(), 2);
}

TEST_F(TextViewTest, RenderingInksGlyphs) {
  Type("Hello");
  const PixelImage& display = im_->window()->Display();
  int ink = 0;
  for (int y = 0; y < 20; ++y) {
    for (int x = 0; x < 60; ++x) {
      ink += display.GetPixel(x, y) == kBlack ? 1 : 0;
    }
  }
  EXPECT_GT(ink, 20);
}

TEST_F(TextViewTest, EmacsKeysViaKeymap) {
  Type("abcd");
  Type(std::string{Ctl('b')});  // backward-char
  EXPECT_EQ(view_->dot_pos(), 3);
  Type(std::string{Ctl('a')});  // beginning-of-line
  EXPECT_EQ(view_->dot_pos(), 0);
  Type(std::string{Ctl('e')});  // end-of-line
  EXPECT_EQ(view_->dot_pos(), 4);
  Type(std::string{Ctl('d')});  // delete at end: no-op
  EXPECT_EQ(text_.GetAllText(), "abcd");
  Type(std::string{Ctl('a')} + std::string{Ctl('d')});
  EXPECT_EQ(text_.GetAllText(), "bcd");
}

TEST_F(TextViewTest, KillAndYank) {
  Type("first line\rsecond");
  Type(std::string{Ctl('a')});  // Start of "second".
  Type(std::string{Ctl('k')});  // Kill it.
  EXPECT_EQ(text_.GetAllText(), "first line\n");
  Type(std::string{Ctl('y')});  // Yank it back.
  EXPECT_EQ(text_.GetAllText(), "first line\nsecond");
}

TEST_F(TextViewTest, ClickSetsCaretByGeometry) {
  Type("hello world");
  Pump();
  // Click at the 7th character cell (6 px per char, 4 px margin).
  Point target = view_->PointAtPos(6);
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDown, target));
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseUp, target));
  Pump();
  EXPECT_EQ(view_->dot_pos(), 6);
}

TEST_F(TextViewTest, DragSelectsRange) {
  Type("hello world");
  Pump();
  Point from = view_->PointAtPos(0);
  Point to = view_->PointAtPos(5);
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDown, from));
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDrag, to));
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseUp, to));
  Pump();
  EXPECT_EQ(view_->dot_pos(), 0);
  EXPECT_EQ(view_->dot_len(), 5);
  EXPECT_EQ(view_->SelectedText(), "hello");
}

TEST_F(TextViewTest, SelectionTypingReplaces) {
  Type("hello world");
  view_->SetDot(0, 5);
  Type("X");
  EXPECT_EQ(text_.GetAllText(), "X world");
}

TEST_F(TextViewTest, WordWrapBreaksAtSpaces) {
  // 300 px wide view - 14 px margins = ~47 chars; this line must wrap.
  Type("aaaa bbbb cccc dddd eeee ffff gggg hhhh iiii jjjj kkkk");
  Pump();
  EXPECT_GT(view_->visible_line_count(), 1);
  // A wrapped line must not split a word: check layout boundaries land on
  // spaces.
  Point second_line_start = view_->PointAtPos(0);
  (void)second_line_start;
  int64_t first_line_end = 0;
  // Find where line 0 ends by scanning PointAtPos y values.
  int y0 = view_->PointAtPos(0).y;
  for (int64_t i = 1; i < text_.size(); ++i) {
    if (view_->PointAtPos(i).y != y0) {
      first_line_end = i;
      break;
    }
  }
  ASSERT_GT(first_line_end, 1);
  // `first_line_end` is the first position whose y differs; the wrap point
  // itself is attributed to both lines, so the space sits one or two back.
  EXPECT_TRUE(text_.CharAt(first_line_end - 1) == ' ' ||
              text_.CharAt(first_line_end - 2) == ' ')
      << "wrapped line does not start at a word boundary";
}

TEST_F(TextViewTest, StylesChangeGlyphMetrics) {
  Type("big");
  text_.styles().Define([] {
    Style s;
    s.name = "huge";
    s.font = FontSpec{"andy", 30, kPlain};
    return s;
  }());
  text_.ApplyStyle(0, 3, "huge");
  Pump();
  // Line height now reflects the 3x font.
  Point after = view_->PointAtPos(3);
  EXPECT_EQ(after.y, view_->PointAtPos(0).y);
  Type("\rx");
  Pump();
  int second_line_y = view_->PointAtPos(4).y;
  EXPECT_GE(second_line_y, Font::Get(FontSpec{"andy", 30, kPlain}).height());
}

TEST_F(TextViewTest, ScrollableInterfaceReportsLines) {
  for (int i = 0; i < 30; ++i) {
    Type("line\r");
  }
  ScrollInfo info = view_->GetScrollInfo();
  EXPECT_EQ(info.total, 31);
  EXPECT_GT(info.visible, 1);
  EXPECT_LT(info.visible, 31);
  view_->ScrollToUnit(10);
  Pump();
  EXPECT_EQ(view_->GetScrollInfo().first_visible, 10);
  EXPECT_EQ(text_.LineOfPos(view_->top_pos()), 10);
}

TEST_F(TextViewTest, CaretScrollsIntoViewWhenTypingPastBottom) {
  for (int i = 0; i < 40; ++i) {
    Type("x\r");
  }
  // The caret (at the end) must be on a visible line.
  ScrollInfo info = view_->GetScrollInfo();
  int64_t caret_line = text_.LineOfPos(view_->dot_pos());
  EXPECT_GE(caret_line, info.first_visible);
  EXPECT_LE(caret_line, info.first_visible + info.visible);
  EXPECT_GT(info.first_visible, 0);  // It did scroll.
}

TEST_F(TextViewTest, EmbeddedObjectGetsChildViewAndRoutesClicks) {
  Type("ab");
  Loader::Instance().Require("raster");
  auto raster = std::make_unique<RasterData>(8, 8);
  view_->SetDot(1);
  view_->InsertObjectAtDot(std::move(raster));
  Pump();
  ASSERT_EQ(view_->children().size(), 1u);
  View* child = view_->children()[0];
  EXPECT_EQ(child->class_name(), "rasterview");
  EXPECT_FALSE(child->bounds().IsEmpty());
  // Click inside the child's box: the raster view (not the text) takes it.
  Point inside = child->bounds().center();
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDown, inside));
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseUp, inside));
  Pump();
  RasterData* data = ObjectCast<RasterData>(child->data_object());
  ASSERT_NE(data, nullptr);
  EXPECT_GT(data->Population(), 0);  // The click painted a pixel.
}

TEST_F(TextViewTest, UnknownEmbeddedTypeRendersPlaceholder) {
  std::string doc =
      "\\begindata{text,1}\nsee \\begindata{music,2}\nnotes...\\enddata{music,2}\n"
      "\\view{musicview,2} here\\enddata{text,1}\n";
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(doc, &ctx);
  TextData* music_doc = ObjectCast<TextData>(read.get());
  ASSERT_NE(music_doc, nullptr);
  view_->SetText(music_doc);
  Pump();
  // No view class for "musicview": the embed degrades to an UnknownView
  // placeholder naming the missing class, and the document still has the
  // unknown object for saving.
  ASSERT_EQ(view_->children().size(), 1u);
  UnknownView* placeholder = ObjectCast<UnknownView>(view_->children()[0]);
  ASSERT_NE(placeholder, nullptr);
  EXPECT_EQ(placeholder->MissingType(), "musicview");
  EXPECT_EQ(music_doc->embedded_count(), 1u);
  std::string resaved = WriteDocument(*music_doc);
  EXPECT_NE(resaved.find("notes..."), std::string::npos);
  view_->SetText(&text_);
}

TEST_F(TextViewTest, MenusIncludeEditAndStyleCards) {
  MenuList menus = im_->ComposeMenus();
  EXPECT_NE(menus.Find("Edit~Copy"), nullptr);
  EXPECT_NE(menus.Find("Style~Bold"), nullptr);
  // Style via menu applies to the selection.
  Type("hello");
  view_->SetDot(0, 5);
  EXPECT_TRUE(im_->InvokeMenu("Style~Bold"));
  EXPECT_EQ(text_.StyleNameAt(2), "bold");
}

TEST_F(TextViewTest, DesiredSizeTracksContent) {
  Type("hello");
  Size small = view_->DesiredSize(Size{1000, 1000});
  Type("\rmore text here");
  Size taller = view_->DesiredSize(Size{1000, 1000});
  EXPECT_GT(taller.height, small.height);
  EXPECT_GT(taller.width, small.width);
}

// ---- PagedTextView -----------------------------------------------------------------

TEST_F(TextViewTest, PagedViewSharesDataObject) {
  Type("shared content");
  PagedTextView paged;
  paged.SetText(&text_);
  auto im2 = InteractionManager::Create(*ws_, 300, 200, "page view");
  im2->SetChild(&paged);
  im2->RunOnce();
  // Both views observe the same data object (§2's two-views case).
  EXPECT_EQ(paged.text(), view_->text());
  // An edit through the first view reaches the second window.
  Type("!");
  im2->RunOnce();
  EXPECT_EQ(paged.text()->GetAllText(), "shared content!");
  // The paged view draws its paper sheet: gray desk border at the corner.
  EXPECT_EQ(im2->window()->Display().GetPixel(2, 2), kLightGray);
  paged.SetText(nullptr);
}

TEST_F(TextViewTest, PagedViewPrintsWholeDocumentAcrossPages) {
  for (int i = 0; i < 60; ++i) {
    text_.InsertString(text_.size(), "line " + std::to_string(i) + "\n");
  }
  PagedTextView paged;
  paged.SetText(&text_);
  auto im2 = InteractionManager::Create(*ws_, 300, 200, "page view");
  im2->SetChild(&paged);
  im2->RunOnce();
  EXPECT_GT(paged.PageCount(), 1);
  PrintJob job(300, 200, 8);
  paged.PrintDocument(job);
  EXPECT_GE(job.page_count(), paged.PageCount() - 1);
  // First page has ink; beyond-last-page would not exist.
  EXPECT_GT(job.page(0).DiffCount(PixelImage(300, 200, kWhite)), 50);
  paged.SetText(nullptr);
}

}  // namespace
}  // namespace atk
