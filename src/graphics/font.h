// Bitmap fonts.
//
// The toolkit's FontDesc abstraction (§8) names a font by family/size/style;
// each window-system backend maps the description onto whatever it can
// render.  Both simulated backends share this bitmap implementation: a 5x7
// pixel master face ("andy"), integer-scaled for sizes, with bold synthesized
// by double-striking and italic by shearing.  Glyphs are authored as ASCII
// art in font_data.cc, so the face is inspectable and testable.

#ifndef ATK_SRC_GRAPHICS_FONT_H_
#define ATK_SRC_GRAPHICS_FONT_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace atk {

// Style bits, OR-able.
enum FontStyle : unsigned {
  kPlain = 0,
  kBold = 1u << 0,
  kItalic = 1u << 1,
};

struct FontSpec {
  std::string family = "andy";
  int size = 10;  // Nominal point size; 10 and 12 map to scale 1, 20/24 to 2...
  unsigned style = kPlain;

  friend bool operator==(const FontSpec&, const FontSpec&) = default;

  FontSpec WithStyle(unsigned s) const { return FontSpec{family, size, s}; }
  FontSpec WithSize(int sz) const { return FontSpec{family, sz, style}; }
  std::string ToString() const;
  // Parses "family12b", "andy10", "andy24bi" (the Andrew font-name style).
  static FontSpec Parse(std::string_view name);
};

// One master glyph: 5 columns x 7 rows, bit (x, y) set when inked.
struct Glyph {
  std::array<uint8_t, 7> rows{};  // Low 5 bits used, bit 4 = leftmost column.
  bool Bit(int x, int y) const {
    if (x < 0 || x >= 5 || y < 0 || y >= 7) {
      return false;
    }
    return (rows[static_cast<size_t>(y)] >> (4 - x)) & 1u;
  }
};

// A block of inked pixels in a glyph cell: rows [y, y + rows), columns
// [x0, x1).  A glyph's spans come in row-major order and never overlap; the
// spans of one band of rows all share the same y and rows.
struct GlyphSpan {
  int32_t y;
  int32_t rows;
  int32_t x0;
  int32_t x1;
};

// A concrete, sized font.  Instances are interned by FontSpec: Get() returns
// a reference valid for the process lifetime.
class Font {
 public:
  static const Font& Get(const FontSpec& spec);
  // The default 10-point plain face.
  static const Font& Default();

  const FontSpec& spec() const { return spec_; }
  int scale() const { return scale_; }

  // Vertical metrics, in pixels.
  int ascent() const { return 7 * scale_; }
  int descent() const { return 2 * scale_; }
  int height() const { return ascent() + descent(); }

  // Horizontal advance of one character (monospace face).
  int advance() const { return 6 * scale_ + ((spec_.style & kBold) ? 1 : 0); }

  int StringWidth(std::string_view text) const {
    return static_cast<int>(text.size()) * advance();
  }

  // True when pixel (x, y) of `ch`'s cell is inked.  (0, 0) is the top-left
  // of the cell; the baseline sits at y == ascent().  Style synthesis (bold
  // strike, italic shear) is already applied.
  bool GlyphBit(char ch, int x, int y) const;

  // The inked pixels of `ch`'s cell within [0, advance()) x [0, ascent()) —
  // exactly the ones GlyphBit reports — as spans.  Precomputed per font, so
  // drawing a glyph costs one fill per span instead of one test per pixel.
  std::span<const GlyphSpan> GlyphSpans(char ch) const;

  // Index of the first character cell at or after pixel `px` (hit-testing).
  int CharIndexAt(int px) const {
    if (px < 0) {
      return 0;
    }
    return px / advance();
  }

 private:
  // One slot per printable character 32..126, plus the box glyph shared by
  // every other code.
  static constexpr int kGlyphSlots = 96;

  explicit Font(const FontSpec& spec);
  void BuildSpans();

  FontSpec spec_;
  int scale_ = 1;
  // Slot i's spans are spans_[slot_begin_[i], slot_begin_[i + 1]).
  std::vector<GlyphSpan> spans_;
  std::array<uint32_t, kGlyphSlots + 1> slot_begin_{};
};

// Access to the master glyph table (font_data.cc).
const Glyph& MasterGlyph(char ch);

}  // namespace atk

#endif  // ATK_SRC_GRAPHICS_FONT_H_
