// Unit tests for the graphics substrate: geometry, regions, the framebuffer,
// fonts and the Graphic drawable.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/graphics/font.h"
#include "src/graphics/geometry.h"
#include "src/graphics/graphic.h"
#include "src/graphics/pixel_image.h"
#include "src/graphics/region.h"

namespace atk {
namespace {

// ---- Geometry ----------------------------------------------------------------

TEST(Rect, ContainsAndIntersects) {
  Rect r{10, 10, 20, 10};
  EXPECT_TRUE(r.Contains(Point{10, 10}));
  EXPECT_TRUE(r.Contains(Point{29, 19}));
  EXPECT_FALSE(r.Contains(Point{30, 10}));  // Half-open.
  EXPECT_FALSE(r.Contains(Point{10, 20}));
  EXPECT_TRUE(r.Intersects(Rect{25, 15, 50, 50}));
  EXPECT_FALSE(r.Intersects(Rect{30, 10, 5, 5}));
  EXPECT_FALSE(r.Intersects(Rect{}));
}

TEST(Rect, IntersectUnion) {
  Rect a{0, 0, 10, 10};
  Rect b{5, 5, 10, 10};
  EXPECT_EQ(a.Intersect(b), (Rect{5, 5, 5, 5}));
  EXPECT_EQ(a.Union(b), (Rect{0, 0, 15, 15}));
  EXPECT_TRUE(a.Intersect(Rect{20, 20, 5, 5}).IsEmpty());
  EXPECT_EQ(a.Union(Rect{}), a);
  EXPECT_EQ(Rect{}.Union(b), b);
}

TEST(Rect, InsetAndArea) {
  Rect r{0, 0, 10, 10};
  EXPECT_EQ(r.Inset(2), (Rect{2, 2, 6, 6}));
  EXPECT_EQ(r.Inset(-1), (Rect{-1, -1, 12, 12}));
  EXPECT_EQ(r.Area(), 100);
  EXPECT_TRUE(r.Inset(5).IsEmpty());
}

TEST(Rect, ContainsRect) {
  Rect outer{0, 0, 100, 100};
  EXPECT_TRUE(outer.Contains(Rect{10, 10, 20, 20}));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(Rect{90, 90, 20, 20}));
}

// ---- Region ---------------------------------------------------------------------

TEST(Region, AddKeepsDisjointArea) {
  Region region;
  region.Add(Rect{0, 0, 10, 10});
  region.Add(Rect{5, 5, 10, 10});  // Overlaps by 5x5.
  EXPECT_EQ(region.Area(), 100 + 100 - 25);
  // Adding a fully covered rect changes nothing.
  region.Add(Rect{2, 2, 3, 3});
  EXPECT_EQ(region.Area(), 175);
}

TEST(Region, SubtractAndCovers) {
  Region region(Rect{0, 0, 10, 10});
  region.Subtract(Rect{0, 0, 5, 10});
  EXPECT_EQ(region.Area(), 50);
  EXPECT_FALSE(region.Contains(Point{2, 2}));
  EXPECT_TRUE(region.Contains(Point{7, 2}));
  EXPECT_TRUE(region.Covers(Rect{5, 0, 5, 10}));
  EXPECT_FALSE(region.Covers(Rect{4, 0, 5, 10}));
}

TEST(Region, SubtractCenterLeavesFrame) {
  Region region(Rect{0, 0, 10, 10});
  region.Subtract(Rect{3, 3, 4, 4});
  EXPECT_EQ(region.Area(), 100 - 16);
  EXPECT_TRUE(region.Contains(Point{0, 0}));
  EXPECT_FALSE(region.Contains(Point{5, 5}));
  EXPECT_TRUE(region.Contains(Point{9, 9}));
}

TEST(Region, BoundsAndIntersects) {
  Region region;
  region.Add(Rect{0, 0, 5, 5});
  region.Add(Rect{20, 20, 5, 5});
  EXPECT_EQ(region.Bounds(), (Rect{0, 0, 25, 25}));
  EXPECT_TRUE(region.Intersects(Rect{4, 4, 2, 2}));
  EXPECT_FALSE(region.Intersects(Rect{10, 10, 5, 5}));
}

TEST(Region, IntersectWithAndTranslate) {
  Region region(Rect{0, 0, 10, 10});
  region.IntersectWith(Rect{5, 0, 10, 10});
  EXPECT_EQ(region.Area(), 50);
  region.Translate(100, 100);
  EXPECT_TRUE(region.Contains(Point{105, 105}));
  EXPECT_EQ(region.Area(), 50);
}

TEST(Region, CoalescingManyPostsStaysBounded) {
  // The IM posts many overlapping rects per cycle; disjointness must hold.
  Region region;
  for (int i = 0; i < 50; ++i) {
    region.Add(Rect{i, i, 20, 20});
  }
  // Area of the union of the staircase, checked against brute force.
  int64_t expected = 0;
  for (int y = 0; y < 70; ++y) {
    for (int x = 0; x < 70; ++x) {
      bool in = false;
      for (int i = 0; i < 50 && !in; ++i) {
        in = x >= i && x < i + 20 && y >= i && y < i + 20;
      }
      expected += in ? 1 : 0;
    }
  }
  EXPECT_EQ(region.Area(), expected);
}

// Property-based check of the banded region algebra against a brute-force
// pixel-bitmap oracle.  Each seed drives a random sequence of
// Add/Subtract/IntersectWith/Translate ops (rect and region operands); after
// every op the region must agree with the bitmap on membership, Area(),
// Bounds(), Covers(), and its materialized rects must tile the set without
// overlap.
class RegionPropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(RegionPropertySweep, MatchesBitmapOracle) {
  constexpr int kW = 96;
  constexpr int kH = 96;
  const Rect window{0, 0, kW, kH};
  uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ull + 0x2545f491ull;
  auto next = [&seed]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  auto rand_rect = [&next]() {
    int x = static_cast<int>(next() % 80);
    int y = static_cast<int>(next() % 80);
    int w = 1 + static_cast<int>(next() % 16);
    int h = 1 + static_cast<int>(next() % 16);
    return Rect{x, y, w, h};
  };

  Region region;
  std::vector<uint8_t> oracle(kW * kH, 0);

  for (int step = 0; step < 32; ++step) {
    int op = static_cast<int>(next() % 7);
    if (op <= 2) {
      // Rect operand.
      Rect r = rand_rect();
      for (int y = r.y; y < r.y + r.height; ++y) {
        for (int x = r.x; x < r.x + r.width; ++x) {
          if (op == 0) {
            oracle[y * kW + x] = 1;
          } else if (op == 1) {
            oracle[y * kW + x] = 0;
          }
        }
      }
      if (op == 0) {
        region.Add(r);
      } else if (op == 1) {
        region.Subtract(r);
      } else {
        for (int y = 0; y < kH; ++y) {
          for (int x = 0; x < kW; ++x) {
            if (!r.Contains(Point{x, y})) {
              oracle[y * kW + x] = 0;
            }
          }
        }
        region.IntersectWith(r);
      }
    } else if (op <= 5) {
      // Region operand built from a few random rects.
      Region other;
      std::vector<uint8_t> other_bits(kW * kH, 0);
      int pieces = 1 + static_cast<int>(next() % 3);
      for (int i = 0; i < pieces; ++i) {
        Rect r = rand_rect();
        other.Add(r);
        for (int y = r.y; y < r.y + r.height; ++y) {
          for (int x = r.x; x < r.x + r.width; ++x) {
            other_bits[y * kW + x] = 1;
          }
        }
      }
      for (int i = 0; i < kW * kH; ++i) {
        if (op == 3) {
          oracle[i] = static_cast<uint8_t>(oracle[i] | other_bits[i]);
        } else if (op == 4) {
          oracle[i] = static_cast<uint8_t>(oracle[i] & static_cast<uint8_t>(!other_bits[i]));
        } else {
          oracle[i] = static_cast<uint8_t>(oracle[i] & other_bits[i]);
        }
      }
      if (op == 3) {
        region.Add(other);
      } else if (op == 4) {
        region.Subtract(other);
      } else {
        region.IntersectWith(other);
      }
    } else {
      // Translate, clipped back into the oracle window on both sides.
      int dx = static_cast<int>(next() % 9) - 4;
      int dy = static_cast<int>(next() % 9) - 4;
      region.Translate(dx, dy);
      region.IntersectWith(window);
      std::vector<uint8_t> shifted(kW * kH, 0);
      for (int y = 0; y < kH; ++y) {
        for (int x = 0; x < kW; ++x) {
          int sx = x - dx;
          int sy = y - dy;
          if (sx >= 0 && sx < kW && sy >= 0 && sy < kH) {
            shifted[y * kW + x] = oracle[sy * kW + sx];
          }
        }
      }
      oracle = std::move(shifted);
    }

    // Membership, Area and Bounds vs the oracle.
    int64_t want_area = 0;
    Rect want_bounds;
    for (int y = 0; y < kH; ++y) {
      for (int x = 0; x < kW; ++x) {
        bool want = oracle[y * kW + x] != 0;
        bool got = region.Contains(Point{x, y});
        if (got != want) {
          ASSERT_EQ(got, want) << "seed " << GetParam() << " step " << step << " at (" << x
                               << "," << y << ")\n"
                               << region.ToString();
        }
        if (want) {
          ++want_area;
          want_bounds = want_bounds.Union(Rect{x, y, 1, 1});
        }
      }
    }
    ASSERT_EQ(region.Area(), want_area) << "seed " << GetParam() << " step " << step;
    ASSERT_EQ(region.Bounds(), want_bounds) << "seed " << GetParam() << " step " << step;

    // The materialized rects must tile the set exactly once (disjointness).
    std::vector<uint8_t> paint(kW * kH, 0);
    int64_t rect_area_sum = 0;
    for (const Rect& r : region.rects()) {
      ASSERT_FALSE(r.IsEmpty());
      rect_area_sum += r.Area();
      for (int y = r.y; y < r.y + r.height; ++y) {
        for (int x = r.x; x < r.x + r.width; ++x) {
          ASSERT_GE(x, 0);
          ASSERT_GE(y, 0);
          ASSERT_LT(x, kW);
          ASSERT_LT(y, kH);
          ASSERT_EQ(paint[y * kW + x], 0)
              << "overlapping rects at (" << x << "," << y << ") seed " << GetParam();
          paint[y * kW + x] = 1;
        }
      }
    }
    ASSERT_EQ(rect_area_sum, want_area) << "seed " << GetParam() << " step " << step;

    // Covers() on a random probe rect agrees with the bitmap.
    Rect probe = rand_rect();
    bool want_covers = true;
    for (int y = probe.y; y < probe.y + probe.height && want_covers; ++y) {
      for (int x = probe.x; x < probe.x + probe.width; ++x) {
        if (oracle[y * kW + x] == 0) {
          want_covers = false;
          break;
        }
      }
    }
    ASSERT_EQ(region.Covers(probe), want_covers)
        << "seed " << GetParam() << " step " << step << " probe " << probe.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionPropertySweep, ::testing::Range(1, 65));

// ---- PixelImage ---------------------------------------------------------------------

TEST(PixelImage, FillAndReadBack) {
  PixelImage img(10, 10);
  EXPECT_EQ(img.GetPixel(0, 0), kWhite);
  img.FillRect(Rect{2, 2, 3, 3}, kBlack);
  EXPECT_EQ(img.GetPixel(2, 2), kBlack);
  EXPECT_EQ(img.GetPixel(4, 4), kBlack);
  EXPECT_EQ(img.GetPixel(5, 5), kWhite);
  // Out-of-range reads are white, writes ignored.
  EXPECT_EQ(img.GetPixel(-1, 0), kWhite);
  img.SetPixel(100, 100, kBlack);
  EXPECT_EQ(img.GetPixel(100, 100), kWhite);
}

TEST(PixelImage, BlitClipsBothEnds) {
  PixelImage src(4, 4, kBlack);
  PixelImage dst(10, 10);
  dst.Blit(src, src.bounds(), Point{8, 8});
  EXPECT_EQ(dst.GetPixel(8, 8), kBlack);
  EXPECT_EQ(dst.GetPixel(9, 9), kBlack);
  EXPECT_EQ(dst.GetPixel(7, 7), kWhite);
  dst.Blit(src, src.bounds(), Point{-2, -2});
  EXPECT_EQ(dst.GetPixel(0, 0), kBlack);
  EXPECT_EQ(dst.GetPixel(1, 1), kBlack);
  EXPECT_EQ(dst.GetPixel(2, 2), kWhite);
}

TEST(PixelImage, HashAndDiff) {
  PixelImage a(8, 8);
  PixelImage b(8, 8);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.DiffCount(b), 0);
  b.SetPixel(3, 3, kBlack);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_EQ(a.DiffCount(b), 1);
}

TEST(PixelImage, PpmHeader) {
  PixelImage img(2, 1, kBlack);
  std::string ppm = img.ToPpm();
  EXPECT_EQ(ppm.rfind("P3\n2 1\n255\n", 0), 0u);
}

// Differential checks of FillRect and Blit, which fill and copy whole rows,
// against per-pixel SetPixel references: rectangles partly or wholly outside
// the image, negative origins, empty, 1-pixel-wide, 1-row and full-image
// rectangles, and rectangles clipped on each edge.

// Neighbouring pixels differ in every channel, so a copy from or to the
// wrong place shows.
PixelImage Patterned(int width, int height, int salt) {
  PixelImage image(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      image.SetPixel(x, y,
                     Color{static_cast<uint8_t>(x * 7 + y * 13 + salt),
                           static_cast<uint8_t>(x * 31 + y * 3 + salt * 5),
                           static_cast<uint8_t>(x * 11 + y * 29 + salt * 3)});
    }
  }
  return image;
}

void ExpectFillMatchesReference(const PixelImage& start, const Rect& rect, Color c) {
  PixelImage want = start;
  for (int y = rect.y; y < rect.bottom(); ++y) {
    for (int x = rect.x; x < rect.right(); ++x) {
      want.SetPixel(x, y, c);
    }
  }
  PixelImage got = start;
  got.FillRect(rect, c);
  ASSERT_EQ(got.DiffCount(want), 0) << "FillRect " << rect.ToString() << " on "
                                    << start.width() << "x" << start.height();
}

void ExpectBlitMatchesReference(const PixelImage& start, const PixelImage& src,
                                const Rect& src_rect, Point origin) {
  PixelImage want = start;
  Rect source = src_rect.Intersect(src.bounds());
  for (int dy = 0; dy < source.height; ++dy) {
    for (int dx = 0; dx < source.width; ++dx) {
      want.SetPixel(origin.x + dx, origin.y + dy, src.GetPixel(source.x + dx, source.y + dy));
    }
  }
  PixelImage got = start;
  got.Blit(src, src_rect, origin);
  ASSERT_EQ(got.DiffCount(want), 0)
      << "Blit " << src_rect.ToString() << " to (" << origin.x << "," << origin.y << ") from "
      << src.width() << "x" << src.height() << " onto " << start.width() << "x"
      << start.height();
}

TEST(PixelImage, FillRectAndBlitEdgeCasesMatchPerPixelReference) {
  const int w = 71;
  const int h = 40;
  const PixelImage start = Patterned(w, h, 1);
  const Color c{200, 40, 90};
  const Rect fills[] = {
      {0, 0, w, h},             // full image
      {-5, -3, w + 10, h + 6},  // covers the image and more
      {-10, -10, 4, 4},         // wholly outside, negative origin
      {w, 0, 8, 8},             // wholly outside, past the right edge
      {3, 4, 0, 5},             // empty: zero width
      {3, 4, 5, 0},             // empty: zero height
      {3, 4, -5, 6},            // empty: negative width
      {5, 0, 1, h},             // 1 pixel wide
      {0, 7, w, 1},             // 1 row
      {w - 1, h - 1, 1, 1},     // the last pixel
      {-16, 5, 32, 9},          // clipped on the left
      {w - 30, 5, 32, 9},       // clipped on the right
      {2, 3, 2, 11},            // 2 pixels wide
      {2, 3, 33, 2},            // 2 rows
      {1, h - 3, 33, 10},       // clipped at the bottom
      {1, -4, 33, 10},          // clipped at the top
  };
  for (const Rect& rect : fills) {
    ExpectFillMatchesReference(start, rect, c);
  }

  const PixelImage src = Patterned(37, 20, 2);
  const Rect src_rects[] = {src.bounds(),   {-2, -3, 12, 9},        {5, 4, 100, 100},
                            {3, 2, 1, 15},  {0, 9, 37, 1},          {4, 4, 0, 3},
                            {-50, 0, 5, 5}};
  // Clipped on the left, top, right and bottom, and all four at once.
  const Point origins[] = {{0, 0},     {-3, 0},     {0, -3},    {w - 10, 0}, {0, h - 7},
                           {-4, -5},   {w - 8, h - 6}, {w, h},  {-38, 0}};
  for (const Rect& src_rect : src_rects) {
    for (Point origin : origins) {
      ExpectBlitMatchesReference(start, src, src_rect, origin);
    }
  }
  PixelImage small = Patterned(4, 3, 3);
  ExpectBlitMatchesReference(small, Patterned(9, 8, 4), Rect{0, 0, 9, 8}, Point{-2, -2});
}

class PixelPrimitiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(PixelPrimitiveSweep, FillRectAndBlitMatchPerPixelReference) {
  uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ull + 0x7f4a7c15ull;
  auto next = [&seed](int bound) {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return static_cast<int>(seed % static_cast<uint64_t>(bound));
  };
  // Image sizes and offsets range over this many pixels past the image.
  constexpr int kMargin = 32;
  // Extents the row copy treats specially, or a random one.
  auto span = [&](int extent) {
    switch (next(6)) {
      case 0: return 1 + next(2);
      case 1: return 1;
      case 2: return extent;
      case 3: return -next(3);
      default: return next(extent + 2 * kMargin);
    }
  };
  for (int round = 0; round < 16; ++round) {
    const int w = 1 + next(3 * kMargin);
    const int h = 1 + next(48);
    const PixelImage start = Patterned(w, h, next(256));
    const Rect rect{next(w + 2 * kMargin) - kMargin, next(h + 16) - 8, span(w), span(h)};
    const Color c{static_cast<uint8_t>(next(256)), static_cast<uint8_t>(next(256)),
                  static_cast<uint8_t>(next(256))};
    ExpectFillMatchesReference(start, rect, c);

    const int sw = 1 + next(3 * kMargin);
    const int sh = 1 + next(48);
    const PixelImage src = Patterned(sw, sh, next(256));
    const Rect src_rect{next(sw + 16) - 8, next(sh + 16) - 8, span(sw), span(sh)};
    const Point origin{next(w + 2 * kMargin) - kMargin - sw / 2, next(h + 16) - 8 - sh / 2};
    ExpectBlitMatchesReference(start, src, src_rect, origin);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PixelPrimitiveSweep, ::testing::Range(1, 65));

// ---- Fonts ------------------------------------------------------------------------------

TEST(FontSpec, ParseAndToString) {
  FontSpec spec = FontSpec::Parse("andy12b");
  EXPECT_EQ(spec.family, "andy");
  EXPECT_EQ(spec.size, 12);
  EXPECT_EQ(spec.style, unsigned{kBold});
  EXPECT_EQ(spec.ToString(), "andy12b");
  FontSpec bi = FontSpec::Parse("times24bi");
  EXPECT_EQ(bi.family, "times");
  EXPECT_EQ(bi.size, 24);
  EXPECT_EQ(bi.style, unsigned{kBold} | unsigned{kItalic});
}

TEST(Font, MetricsScaleWithSize) {
  const Font& small = Font::Get(FontSpec{"andy", 10, kPlain});
  const Font& large = Font::Get(FontSpec{"andy", 20, kPlain});
  EXPECT_EQ(small.scale(), 1);
  EXPECT_EQ(large.scale(), 2);
  EXPECT_EQ(small.ascent(), 7);
  EXPECT_EQ(large.ascent(), 14);
  EXPECT_EQ(small.advance(), 6);
  EXPECT_EQ(large.advance(), 12);
  EXPECT_EQ(small.StringWidth("hello"), 30);
}

TEST(Font, GlyphsAreDistinct) {
  const Font& font = Font::Default();
  // Render 'A' and 'B' into bit signatures and compare.
  auto signature = [&](char ch) {
    uint64_t bits = 0;
    for (int y = 0; y < font.ascent(); ++y) {
      for (int x = 0; x < 5; ++x) {
        bits = (bits << 1) | (font.GlyphBit(ch, x, y) ? 1 : 0);
      }
    }
    return bits;
  };
  EXPECT_NE(signature('A'), signature('B'));
  EXPECT_NE(signature('0'), signature('O'));
  EXPECT_EQ(signature(' '), 0u);
  // All printable glyphs except space have some ink.
  for (int c = 33; c <= 126; ++c) {
    EXPECT_NE(signature(static_cast<char>(c)), 0u) << "glyph " << c << " is blank";
  }
}

TEST(Font, BoldAddsInkItalicShears) {
  const Font& plain = Font::Get(FontSpec{"andy", 10, kPlain});
  const Font& bold = Font::Get(FontSpec{"andy", 10, kBold});
  int plain_ink = 0;
  int bold_ink = 0;
  for (int y = 0; y < 7; ++y) {
    for (int x = 0; x < 7; ++x) {
      plain_ink += plain.GlyphBit('H', x, y) ? 1 : 0;
      bold_ink += bold.GlyphBit('H', x, y) ? 1 : 0;
    }
  }
  EXPECT_GT(bold_ink, plain_ink);
  const Font& italic = Font::Get(FontSpec{"andy", 10, kItalic});
  // Top row of 'H' shifts right under the shear: column 0 empty.
  EXPECT_TRUE(plain.GlyphBit('H', 0, 0));
  EXPECT_FALSE(italic.GlyphBit('H', 0, 0));
}

TEST(Font, CharIndexAtForHitTesting) {
  const Font& font = Font::Default();
  EXPECT_EQ(font.CharIndexAt(0), 0);
  EXPECT_EQ(font.CharIndexAt(5), 0);
  EXPECT_EQ(font.CharIndexAt(6), 1);
  EXPECT_EQ(font.CharIndexAt(-3), 0);
}

// ---- Graphic -----------------------------------------------------------------------------

class GraphicTest : public ::testing::Test {
 protected:
  GraphicTest() : image_(64, 64), graphic_(&image_, image_.bounds()) {}
  PixelImage image_;
  ImageGraphic graphic_;
};

TEST_F(GraphicTest, FillAndEraseRect) {
  graphic_.FillRect(Rect{10, 10, 10, 10});
  EXPECT_EQ(image_.GetPixel(10, 10), kBlack);
  EXPECT_EQ(image_.GetPixel(19, 19), kBlack);
  EXPECT_EQ(image_.GetPixel(20, 20), kWhite);
  graphic_.EraseRect(Rect{10, 10, 5, 5});
  EXPECT_EQ(image_.GetPixel(10, 10), kWhite);
  EXPECT_EQ(image_.GetPixel(15, 15), kBlack);
}

TEST_F(GraphicTest, DrawLineEndpoints) {
  graphic_.DrawLine(Point{0, 0}, Point{10, 10});
  EXPECT_EQ(image_.GetPixel(0, 0), kBlack);
  EXPECT_EQ(image_.GetPixel(5, 5), kBlack);
  EXPECT_EQ(image_.GetPixel(10, 10), kBlack);
  EXPECT_EQ(image_.GetPixel(10, 0), kWhite);
}

TEST_F(GraphicTest, MoveToLineToTracksCurrentPoint) {
  graphic_.MoveTo(Point{5, 5});
  graphic_.LineTo(Point{5, 15});
  EXPECT_EQ(graphic_.current_point(), (Point{5, 15}));
  EXPECT_EQ(image_.GetPixel(5, 10), kBlack);
}

TEST_F(GraphicTest, DrawRectIsHollow) {
  graphic_.DrawRect(Rect{10, 10, 10, 10});
  EXPECT_EQ(image_.GetPixel(10, 10), kBlack);
  EXPECT_EQ(image_.GetPixel(19, 19), kBlack);
  EXPECT_EQ(image_.GetPixel(14, 14), kWhite);
}

TEST_F(GraphicTest, ClipRestrictsDrawing) {
  graphic_.PushClip(Rect{0, 0, 8, 8});
  graphic_.FillRect(Rect{0, 0, 20, 20});
  EXPECT_EQ(image_.GetPixel(7, 7), kBlack);
  EXPECT_EQ(image_.GetPixel(8, 8), kWhite);
  graphic_.PopClip();
  graphic_.FillRect(Rect{10, 10, 2, 2});
  EXPECT_EQ(image_.GetPixel(10, 10), kBlack);
}

TEST_F(GraphicTest, NestedClipsIntersect) {
  graphic_.PushClip(Rect{0, 0, 10, 10});
  graphic_.PushClip(Rect{5, 5, 10, 10});
  graphic_.FillRect(Rect{0, 0, 64, 64});
  EXPECT_EQ(image_.GetPixel(6, 6), kBlack);
  EXPECT_EQ(image_.GetPixel(4, 4), kWhite);
  EXPECT_EQ(image_.GetPixel(11, 11), kWhite);
}

TEST_F(GraphicTest, SubGraphicTranslatesAndClips) {
  std::unique_ptr<Graphic> sub = graphic_.CreateSub(Rect{20, 20, 10, 10});
  EXPECT_EQ(sub->LocalBounds(), (Rect{0, 0, 10, 10}));
  sub->FillRect(Rect{0, 0, 100, 100});  // Clipped to its allocation.
  EXPECT_EQ(image_.GetPixel(20, 20), kBlack);
  EXPECT_EQ(image_.GetPixel(29, 29), kBlack);
  EXPECT_EQ(image_.GetPixel(30, 30), kWhite);
  EXPECT_EQ(image_.GetPixel(19, 19), kWhite);
}

TEST_F(GraphicTest, SubSubGraphicComposes) {
  std::unique_ptr<Graphic> sub = graphic_.CreateSub(Rect{10, 10, 30, 30});
  std::unique_ptr<Graphic> subsub = sub->CreateSub(Rect{5, 5, 10, 10});
  subsub->FillRect(subsub->LocalBounds());
  EXPECT_EQ(image_.GetPixel(15, 15), kBlack);
  EXPECT_EQ(image_.GetPixel(24, 24), kBlack);
  EXPECT_EQ(image_.GetPixel(25, 25), kWhite);
  EXPECT_EQ(image_.GetPixel(14, 14), kWhite);
}

TEST_F(GraphicTest, XorModeIsReversible) {
  graphic_.FillRect(Rect{0, 0, 4, 4});
  graphic_.SetTransferMode(TransferMode::kXor);
  graphic_.SetForeground(kWhite);  // XOR with white flips all bits.
  graphic_.FillRect(Rect{0, 0, 8, 8});
  EXPECT_EQ(image_.GetPixel(0, 0), kWhite);
  EXPECT_EQ(image_.GetPixel(5, 5), kBlack);
  graphic_.FillRect(Rect{0, 0, 8, 8});  // Again: restored.
  EXPECT_EQ(image_.GetPixel(0, 0), kBlack);
  EXPECT_EQ(image_.GetPixel(5, 5), kWhite);
}

TEST_F(GraphicTest, InvertRectIsReversible) {
  graphic_.FillRect(Rect{0, 0, 4, 4});
  graphic_.InvertRect(Rect{0, 0, 8, 8});
  EXPECT_EQ(image_.GetPixel(0, 0), kWhite);
  EXPECT_EQ(image_.GetPixel(6, 6), kBlack);
  graphic_.InvertRect(Rect{0, 0, 8, 8});
  EXPECT_EQ(image_.GetPixel(0, 0), kBlack);
  EXPECT_EQ(image_.GetPixel(6, 6), kWhite);
}

TEST_F(GraphicTest, OrModeOnlyDarkens) {
  graphic_.FillRect(Rect{0, 0, 4, 4});
  graphic_.SetTransferMode(TransferMode::kOr);
  graphic_.SetForeground(kWhite);
  graphic_.FillRect(Rect{0, 0, 8, 8});  // White ink in kOr changes nothing.
  EXPECT_EQ(image_.GetPixel(0, 0), kBlack);
  EXPECT_EQ(image_.GetPixel(6, 6), kWhite);
}

TEST_F(GraphicTest, FillEllipseInscribed) {
  graphic_.FillEllipse(Rect{10, 10, 20, 20});
  EXPECT_EQ(image_.GetPixel(20, 20), kBlack);  // Center.
  EXPECT_EQ(image_.GetPixel(10, 10), kWhite);  // Corner outside circle.
  EXPECT_EQ(image_.GetPixel(20, 11), kBlack);  // Top of circle.
}

TEST_F(GraphicTest, FillPolygonTriangle) {
  const Point tri[] = {{5, 5}, {25, 5}, {15, 25}};
  graphic_.FillPolygon(tri);
  EXPECT_EQ(image_.GetPixel(15, 10), kBlack);
  EXPECT_EQ(image_.GetPixel(5, 20), kWhite);
  EXPECT_EQ(image_.GetPixel(25, 20), kWhite);
}

TEST_F(GraphicTest, DrawStringInksGlyphs) {
  graphic_.DrawString(Point{2, 2}, "Hi");
  // Some ink must appear within the two character cells.
  int ink = 0;
  for (int y = 2; y < 2 + 7; ++y) {
    for (int x = 2; x < 2 + 12; ++x) {
      ink += image_.GetPixel(x, y) == kBlack ? 1 : 0;
    }
  }
  EXPECT_GT(ink, 8);
  // Nothing outside the cells.
  EXPECT_EQ(image_.GetPixel(2 + 13, 5), kWhite);
}

// DrawString blits precomputed glyph spans; a GlyphBit + DrawPoint loop over
// every cell pixel is the reference.  All 256 codes (the box glyph stands in
// for every non-printable one), every size band, style and transfer mode,
// over a patterned page so the read-modify-write modes have something to
// combine with, with and without a clip, from negative and odd origins.
class DrawStringExactness : public ::testing::Test {
 protected:
  static constexpr int kCharsPerLine = 32;

  static void PaintPattern(PixelImage& image) {
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) {
        image.SetPixel(x, y, Color{static_cast<uint8_t>(x * 7 + y), static_cast<uint8_t>(y * 5),
                                   static_cast<uint8_t>((x ^ y) * 3)});
      }
    }
  }

  // Draws the 256 codes, kCharsPerLine to a line, into a fresh patterned
  // page and returns its hash.  `reference` plots GlyphBit pixel by pixel.
  static uint64_t Render(const FontSpec& spec, TransferMode mode, bool clipped, Point origin,
                         bool reference) {
    const Font& font = Font::Get(spec);
    PixelImage image(kCharsPerLine * font.advance() + 24, 8 * font.height() + 24);
    PaintPattern(image);
    // A device origin away from (0, 0) so local and device coordinates differ.
    ImageGraphic graphic(&image, Rect{5, 3, image.width() - 5, image.height() - 3});
    if (clipped) {
      graphic.PushClip(Rect{13, 9, image.width() / 2 + 1, image.height() / 2 - 3});
    }
    graphic.SetFont(spec);
    graphic.SetForeground(Color{200, 40, 120});
    graphic.SetTransferMode(mode);
    for (int line = 0; line < 8; ++line) {
      std::string text;
      for (int i = 0; i < kCharsPerLine; ++i) {
        text.push_back(static_cast<char>(line * kCharsPerLine + i));
      }
      Point top_left{origin.x, origin.y + line * font.height()};
      if (!reference) {
        graphic.DrawString(top_left, text);
        continue;
      }
      for (int i = 0; i < kCharsPerLine; ++i) {
        for (int gy = 0; gy < font.ascent(); ++gy) {
          for (int gx = 0; gx < font.advance(); ++gx) {
            if (font.GlyphBit(text[static_cast<size_t>(i)], gx, gy)) {
              graphic.DrawPoint(Point{top_left.x + i * font.advance() + gx, top_left.y + gy});
            }
          }
        }
      }
    }
    return image.Hash();
  }
};

TEST_F(DrawStringExactness, SpansMatchPerPixelGlyphBits) {
  const TransferMode modes[] = {TransferMode::kCopy, TransferMode::kOr, TransferMode::kXor,
                                TransferMode::kInvert};
  const Point origins[] = {Point{-7, -3}, Point{3, 5}};
  for (int size : {10, 14, 20, 24, 36}) {
    for (unsigned style : {unsigned{kPlain}, unsigned{kBold}, unsigned{kItalic},
                           unsigned{kBold} | unsigned{kItalic}}) {
      for (TransferMode mode : modes) {
        for (bool clipped : {false, true}) {
          for (Point origin : origins) {
            FontSpec spec{"andy", size, style};
            SCOPED_TRACE(spec.ToString() + " mode " + std::to_string(static_cast<int>(mode)) +
                         (clipped ? " clipped" : " unclipped") + " origin " +
                         std::to_string(origin.x) + "," + std::to_string(origin.y));
            EXPECT_EQ(Render(spec, mode, clipped, origin, false),
                      Render(spec, mode, clipped, origin, true));
          }
        }
      }
    }
  }
}

TEST(Font, GetInternsBySpec) {
  const Font& a = Font::Get(FontSpec{"andy", 12, kBold});
  EXPECT_EQ(&a, &Font::Get(FontSpec::Parse("andy12b")));
  EXPECT_EQ(a.spec(), (FontSpec{"andy", 12, kBold}));
  EXPECT_NE(&a, &Font::Get(FontSpec{"andy", 12, kPlain}));
  EXPECT_NE(&a, &Font::Get(FontSpec{"andy", 14, kBold}));
  EXPECT_NE(&a, &Font::Get(FontSpec{"times", 12, kBold}));
}

TEST_F(GraphicTest, OpCountTallies) {
  EXPECT_EQ(graphic_.op_count(), 0u);
  graphic_.FillRect(Rect{0, 0, 2, 2});
  graphic_.DrawLine(Point{0, 0}, Point{3, 3});
  graphic_.DrawString(Point{0, 0}, "x");
  EXPECT_EQ(graphic_.op_count(), 3u);
  graphic_.ResetOpCount();
  EXPECT_EQ(graphic_.op_count(), 0u);
}

TEST_F(GraphicTest, ThickLineHasWidth) {
  graphic_.SetLineWidth(3);
  graphic_.DrawLine(Point{10, 30}, Point{50, 30});
  EXPECT_EQ(image_.GetPixel(30, 29), kBlack);
  EXPECT_EQ(image_.GetPixel(30, 30), kBlack);
  EXPECT_EQ(image_.GetPixel(30, 31), kBlack);
  EXPECT_EQ(image_.GetPixel(30, 27), kWhite);
}

TEST_F(GraphicTest, DrawImageCopiesPixels) {
  PixelImage sprite(4, 4, kBlack);
  graphic_.DrawImage(sprite, sprite.bounds(), Point{30, 30});
  EXPECT_EQ(image_.GetPixel(30, 30), kBlack);
  EXPECT_EQ(image_.GetPixel(33, 33), kBlack);
  EXPECT_EQ(image_.GetPixel(34, 34), kWhite);
}

}  // namespace
}  // namespace atk
