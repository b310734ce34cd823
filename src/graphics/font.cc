#include "src/graphics/font.h"

#include <cctype>
#include <map>
#include <sstream>
#include <tuple>

namespace atk {

std::string FontSpec::ToString() const {
  std::ostringstream out;
  out << family << size;
  if (style & kBold) {
    out << "b";
  }
  if (style & kItalic) {
    out << "i";
  }
  return out.str();
}

FontSpec FontSpec::Parse(std::string_view name) {
  FontSpec spec;
  size_t i = 0;
  while (i < name.size() && !std::isdigit(static_cast<unsigned char>(name[i]))) {
    ++i;
  }
  if (i > 0) {
    spec.family = std::string(name.substr(0, i));
  }
  int size = 0;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
    size = size * 10 + (name[i] - '0');
    ++i;
  }
  if (size > 0) {
    spec.size = size;
  }
  spec.style = kPlain;
  for (; i < name.size(); ++i) {
    if (name[i] == 'b') {
      spec.style |= kBold;
    } else if (name[i] == 'i') {
      spec.style |= kItalic;
    }
  }
  return spec;
}

Font::Font(const FontSpec& spec) : spec_(spec) {
  // Nominal sizes up to 14 use the master bitmaps; larger sizes scale up.
  scale_ = spec.size <= 14 ? 1 : (spec.size + 9) / 10;
  if (scale_ < 1) {
    scale_ = 1;
  }
  BuildSpans();
}

void Font::BuildSpans() {
  // GlyphBit depends on y only through the master row y / scale_, so each
  // band of scale_ device rows has the same ink: sample the band's first
  // row and emit one span per inked run of columns, covering the band.
  for (int slot = 0; slot < kGlyphSlots; ++slot) {
    slot_begin_[static_cast<size_t>(slot)] = static_cast<uint32_t>(spans_.size());
    // The last slot's representative is any non-printable code: all of them
    // draw the box glyph.
    char ch = slot < kGlyphSlots - 1 ? static_cast<char>(' ' + slot) : '\0';
    for (int y = 0; y < ascent(); y += scale_) {
      int x = 0;
      while (x < advance()) {
        if (!GlyphBit(ch, x, y)) {
          ++x;
          continue;
        }
        int x0 = x;
        while (x < advance() && GlyphBit(ch, x, y)) {
          ++x;
        }
        spans_.push_back(GlyphSpan{y, scale_, x0, x});
      }
    }
  }
  slot_begin_[kGlyphSlots] = static_cast<uint32_t>(spans_.size());
  spans_.shrink_to_fit();
}

std::span<const GlyphSpan> Font::GlyphSpans(char ch) const {
  int code = static_cast<unsigned char>(ch);
  // Printable codes have a slot each; every other code shares the box.
  size_t slot = code >= ' ' && code <= '~' ? static_cast<size_t>(code - ' ') : kGlyphSlots - 1;
  return std::span<const GlyphSpan>(spans_.data() + slot_begin_[slot],
                                    spans_.data() + slot_begin_[slot + 1]);
}

namespace {

// Orders specs field by field, so an interning lookup compares a few
// integers and at most one family name and builds no string.
struct FontSpecLess {
  bool operator()(const FontSpec& a, const FontSpec& b) const {
    return std::tie(a.size, a.style, a.family) < std::tie(b.size, b.style, b.family);
  }
};

}  // namespace

const Font& Font::Get(const FontSpec& spec) {
  static auto* fonts = new std::map<FontSpec, const Font*, FontSpecLess>();
  auto it = fonts->find(spec);
  if (it == fonts->end()) {
    it = fonts->emplace(spec, new Font(spec)).first;
  }
  return *it->second;
}

const Font& Font::Default() { return Get(FontSpec{}); }

bool Font::GlyphBit(char ch, int x, int y) const {
  const Glyph& glyph = MasterGlyph(ch);
  // Map the scaled cell pixel back to master coordinates.  The glyph's 7
  // master rows span [0, ascent); descenders are drawn within them.
  bool italic = (spec_.style & kItalic) != 0;
  bool bold = (spec_.style & kBold) != 0;
  int my = y / scale_;
  if (my < 0 || my >= 7) {
    return false;
  }
  // Italic: shear the top rows right by up to 2 master columns.
  int shear = italic ? (6 - my) / 3 : 0;
  int shifted = x - shear * scale_;
  int mx = shifted >= 0 ? shifted / scale_ : -1;
  if (glyph.Bit(mx, my)) {
    return true;
  }
  if (bold) {
    // Double strike: a pixel is also inked when the cell one device pixel to
    // the left is inked.
    int bx = shifted - 1;
    int bmx = bx >= 0 ? bx / scale_ : -1;
    if (glyph.Bit(bmx, my)) {
      return true;
    }
  }
  return false;
}

}  // namespace atk
