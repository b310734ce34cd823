// Text styles and style sheets.
//
// The text component is "multi-font text ... with multiple fonts,
// indentations, etc." (§2).  A Style names a bundle of appearance
// attributes; a StyleSheet maps style names to Styles.  Text data carries
// (start, len, style-name) runs; the view resolves names through the
// document's sheet at layout time, so restyling a sheet restyles every run
// that names the style.

#ifndef ATK_SRC_COMPONENTS_TEXT_STYLE_H_
#define ATK_SRC_COMPONENTS_TEXT_STYLE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/graphics/color.h"
#include "src/graphics/font.h"

namespace atk {

enum class Justification {
  kLeft,
  kCenter,
  kRight,
};

struct Style {
  std::string name = "default";
  FontSpec font;
  int indent_left = 0;   // Pixels of left indentation for wrapped lines.
  int space_above = 0;   // Extra pixels above each line in this style.
  Justification justify = Justification::kLeft;
  Color color = kBlack;

  friend bool operator==(const Style&, const Style&) = default;

  // Serialized form "font=andy12b;indent=8;above=2;justify=center".
  std::string Serialize() const;
  static Style Deserialize(std::string_view name, std::string_view serialized);
};

// A document's styles.  The sheet stores only the styles its document
// defines; every other name falls through to the standard Andrew styles
// (default, bold, italic, bolditalic, heading, subheading, typewriter,
// center, quotation), one immutable sheet shared by the whole process.  A
// fresh sheet therefore allocates nothing, and a Define restyles this
// document alone: it never touches the standard sheet or another document.
class StyleSheet {
 public:
  // Defines or redefines `style.name` in this sheet.  A reference Get
  // returned for a name this sheet defines stays valid and shows the new
  // definition.
  void Define(const Style& style);
  // Resolves `name`; unknown names resolve to "default".
  const Style& Get(std::string_view name) const;
  bool Contains(std::string_view name) const;

  // Styles that must be serialized with documents: non-standard names plus
  // any standard style whose definition was edited (e.g. by the style
  // editor).
  std::vector<const Style*> CustomStyles() const;
  // Every name Get resolves without falling back to "default", sorted.
  std::vector<std::string> Names() const;

 private:
  const Style* Find(std::string_view name) const;

  // This document's own definitions only.
  std::map<std::string, Style, std::less<>> styles_;
};

}  // namespace atk

#endif  // ATK_SRC_COMPONENTS_TEXT_STYLE_H_
