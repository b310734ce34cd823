#include "src/components/text/style.h"

#include <algorithm>
#include <sstream>

namespace atk {
namespace {

const char* JustifyName(Justification j) {
  switch (j) {
    case Justification::kLeft:
      return "left";
    case Justification::kCenter:
      return "center";
    case Justification::kRight:
      return "right";
  }
  return "left";
}

Justification JustifyFromName(std::string_view name) {
  if (name == "center") {
    return Justification::kCenter;
  }
  if (name == "right") {
    return Justification::kRight;
  }
  return Justification::kLeft;
}

// The standard Andrew styles, "default" first.  Built once, never changed,
// and never destroyed, so a sheet may resolve names even during exit.
const std::vector<Style>& StandardStyles() {
  static const std::vector<Style>* standard = [] {
    auto* sheet = new std::vector<Style>();
    Style def;
    sheet->push_back(def);

    Style bold = def;
    bold.name = "bold";
    bold.font.style = kBold;
    sheet->push_back(bold);

    Style italic = def;
    italic.name = "italic";
    italic.font.style = kItalic;
    sheet->push_back(italic);

    Style bolditalic = def;
    bolditalic.name = "bolditalic";
    bolditalic.font.style = kBold | kItalic;
    sheet->push_back(bolditalic);

    Style heading = def;
    heading.name = "heading";
    heading.font.size = 20;
    heading.font.style = kBold;
    heading.space_above = 6;
    sheet->push_back(heading);

    Style subheading = def;
    subheading.name = "subheading";
    subheading.font.size = 14;
    subheading.font.style = kBold;
    subheading.space_above = 4;
    sheet->push_back(subheading);

    Style typewriter = def;
    typewriter.name = "typewriter";
    typewriter.font.family = "andytype";
    sheet->push_back(typewriter);

    Style center = def;
    center.name = "center";
    center.justify = Justification::kCenter;
    sheet->push_back(center);

    Style quotation = def;
    quotation.name = "quotation";
    quotation.font.style = kItalic;
    quotation.indent_left = 16;
    sheet->push_back(quotation);
    return sheet;
  }();
  return *standard;
}

// A linear scan: with nine names, comparing lengths first beats a tree
// walk, and Get runs once per laid-out character.
const Style* FindStandard(std::string_view name) {
  for (const Style& style : StandardStyles()) {
    if (style.name == name) {
      return &style;
    }
  }
  return nullptr;
}

}  // namespace

std::string Style::Serialize() const {
  std::ostringstream out;
  out << "font=" << font.ToString() << ";indent=" << indent_left << ";above=" << space_above
      << ";justify=" << JustifyName(justify);
  return out.str();
}

Style Style::Deserialize(std::string_view name, std::string_view serialized) {
  Style style;
  style.name = std::string(name);
  size_t pos = 0;
  while (pos < serialized.size()) {
    size_t semi = serialized.find(';', pos);
    std::string_view field = serialized.substr(
        pos, semi == std::string_view::npos ? std::string_view::npos : semi - pos);
    size_t eq = field.find('=');
    if (eq != std::string_view::npos) {
      std::string_view key = field.substr(0, eq);
      std::string_view value = field.substr(eq + 1);
      if (key == "font") {
        style.font = FontSpec::Parse(value);
      } else if (key == "indent") {
        style.indent_left = std::atoi(std::string(value).c_str());
      } else if (key == "above") {
        style.space_above = std::atoi(std::string(value).c_str());
      } else if (key == "justify") {
        style.justify = JustifyFromName(value);
      }
    }
    if (semi == std::string_view::npos) {
      break;
    }
    pos = semi + 1;
  }
  return style;
}

void StyleSheet::Define(const Style& style) { styles_[style.name] = style; }

const Style* StyleSheet::Find(std::string_view name) const {
  if (!styles_.empty()) {
    auto own = styles_.find(name);
    if (own != styles_.end()) {
      return &own->second;
    }
  }
  return FindStandard(name);
}

const Style& StyleSheet::Get(std::string_view name) const {
  const Style* style = Find(name);
  // The standard sheet defines "default", so the fallback always resolves.
  return style != nullptr ? *style : *Find("default");
}

bool StyleSheet::Contains(std::string_view name) const { return Find(name) != nullptr; }

std::vector<const Style*> StyleSheet::CustomStyles() const {
  std::vector<const Style*> custom;
  for (const auto& [name, style] : styles_) {
    const Style* standard = FindStandard(name);
    if (standard == nullptr || !(style == *standard)) {
      custom.push_back(&style);
    }
  }
  return custom;
}

std::vector<std::string> StyleSheet::Names() const {
  std::vector<std::string> names;
  names.reserve(styles_.size() + StandardStyles().size());
  for (const auto& [name, style] : styles_) {
    names.push_back(name);
  }
  for (const Style& style : StandardStyles()) {
    if (styles_.find(style.name) == styles_.end()) {
      names.push_back(style.name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace atk
