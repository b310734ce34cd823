#include "src/components/raster/raster_data.h"

#include "src/datastream/directive_args.h"

namespace atk {

ATK_DEFINE_CLASS(RasterData, DataObject, "raster")

RasterData::RasterData() : RasterData(16, 16) {}

RasterData::RasterData(int width, int height) { Reset(width, height); }

RasterData::~RasterData() = default;

void RasterData::Reset(int width, int height) {
  width_ = std::max(width, 0);
  height_ = std::max(height, 0);
  bits_.assign(static_cast<size_t>(width_) * height_, false);
  NotifyModified();
}

void RasterData::NotifyModified() {
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
}

bool RasterData::Get(int x, int y) const {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) {
    return false;
  }
  return bits_[Index(x, y)];
}

void RasterData::Set(int x, int y, bool on) {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) {
    return;
  }
  bits_[Index(x, y)] = on;
  Change change;
  change.kind = Change::Kind::kReplaced;
  change.pos = y;
  change.detail = x;
  NotifyObservers(change);
}

void RasterData::SetRow(int y, const std::vector<bool>& bits) {
  if (y < 0 || y >= height_) {
    return;
  }
  for (int x = 0; x < width_ && x < static_cast<int>(bits.size()); ++x) {
    bits_[Index(x, y)] = bits[static_cast<size_t>(x)];
  }
  NotifyModified();
}

void RasterData::Invert() {
  for (size_t i = 0; i < bits_.size(); ++i) {
    bits_[i] = !bits_[i];
  }
  NotifyModified();
}

int64_t RasterData::Population() const {
  int64_t count = 0;
  for (bool bit : bits_) {
    count += bit ? 1 : 0;
  }
  return count;
}

void RasterData::FromImage(const PixelImage& image) {
  width_ = image.width();
  height_ = image.height();
  bits_.assign(static_cast<size_t>(width_) * height_, false);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      bits_[Index(x, y)] = image.GetPixel(x, y).Luminance() < 128;
    }
  }
  NotifyModified();
}

PixelImage RasterData::ToImage() const {
  PixelImage image(width_, height_, kWhite);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      if (bits_[Index(x, y)]) {
        image.SetPixel(x, y, kBlack);
      }
    }
  }
  return image;
}

void RasterData::WriteBody(DataStreamWriter& writer) const {
  writer.WriteDirective("rasterdim", std::to_string(width_) + "," + std::to_string(height_));
  writer.WriteNewline();
  // One hex line per row, 4 pixels per nibble, MSB-first.
  for (int y = 0; y < height_; ++y) {
    std::string line;
    line.reserve(static_cast<size_t>((width_ + 3) / 4));
    for (int x = 0; x < width_; x += 4) {
      int nibble = 0;
      for (int b = 0; b < 4; ++b) {
        nibble <<= 1;
        if (x + b < width_ && bits_[Index(x + b, y)]) {
          nibble |= 1;
        }
      }
      line += "0123456789abcdef"[nibble];
    }
    writer.WriteLine(line);
  }
}

bool RasterData::ReadBody(DataStreamReader& reader, ReadContext& context) {
  using Kind = DataStreamReader::Token::Kind;
  int y = 0;
  std::string carry;
  auto consume_line = [&](std::string_view line) {
    if (y >= height_ || line.empty()) {
      return;
    }
    int x = 0;
    for (char ch : line) {
      int nibble = -1;
      if (ch >= '0' && ch <= '9') {
        nibble = ch - '0';
      } else if (ch >= 'a' && ch <= 'f') {
        nibble = ch - 'a' + 10;
      } else if (ch >= 'A' && ch <= 'F') {
        nibble = ch - 'A' + 10;
      } else {
        continue;
      }
      for (int b = 3; b >= 0; --b) {
        if (x < width_) {
          bits_[Index(x, y)] = (nibble >> b) & 1;
        }
        ++x;
      }
    }
    ++y;
  };
  while (true) {
    DataStreamReader::Token token = reader.Next();
    if (token.kind == Kind::kEndData || token.kind == Kind::kEof) {
      if (!carry.empty()) {
        consume_line(carry);
      }
      NotifyModified();
      return token.kind == Kind::kEndData;
    }
    if (token.kind == Kind::kDirective && token.type == "rasterdim") {
      DirectiveArgs args(token.text);
      int w = 0;
      int h = 0;
      if (args.Int(w) && args.Int(h)) {
        w = std::max(w, 0);
        h = std::max(h, 0);
        // Each hex digit of the rows that follow carries 4 pixels, so no
        // honest raster declares more than the rest of the input can hold.
        int64_t carriable = 4 * static_cast<int64_t>(reader.input_size() - reader.position());
        if (int64_t{w} * h > carriable) {
          context.AddDiagnostic(Diagnostic{StatusCode::kCorrupt, token.offset,
                                           "raster dimensions " + std::string(token.text) +
                                               " exceed the pixels its input carries"});
        } else {
          width_ = w;
          height_ = h;
          bits_.assign(static_cast<size_t>(width_) * height_, false);
          y = 0;
        }
      }
    } else if (token.kind == Kind::kText) {
      // Rows are consumed in place; only a row split across tokens is
      // gathered in `carry`.
      std::string_view text = token.text;
      size_t nl;
      while ((nl = text.find('\n')) != std::string_view::npos) {
        if (carry.empty()) {
          consume_line(text.substr(0, nl));
        } else {
          carry += text.substr(0, nl);
          consume_line(carry);
          carry.clear();
        }
        text.remove_prefix(nl + 1);
      }
      carry += text;
    } else if (token.kind == Kind::kBeginData) {
      reader.SkipObject(token.type, token.id);
    }
  }
}

}  // namespace atk
