#include "src/graphics/pixel_image.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace atk {

PixelImage::PixelImage(int width, int height, Color fill)
    : width_(width > 0 ? width : 0), height_(height > 0 ? height : 0) {
  pixels_.assign(static_cast<size_t>(width_) * height_, fill);
}

void PixelImage::SetPixel(int x, int y, Color c) {
  if (!InBounds(x, y)) {
    return;
  }
  pixels_[static_cast<size_t>(y) * width_ + x] = c;
}

Color PixelImage::GetPixel(int x, int y) const {
  if (!InBounds(x, y)) {
    return kWhite;
  }
  return pixels_[static_cast<size_t>(y) * width_ + x];
}

void PixelImage::Fill(Color c) { pixels_.assign(pixels_.size(), c); }

void PixelImage::FillRect(const Rect& rect, Color c) {
  Rect clipped = rect.Intersect(bounds());
  if (clipped.IsEmpty()) {
    return;
  }
  Color* first = &pixels_[static_cast<size_t>(clipped.y) * width_ + clipped.x];
  std::fill_n(first, clipped.width, c);
  const size_t row_bytes = static_cast<size_t>(clipped.width) * sizeof(Color);
  for (int y = 1; y < clipped.height; ++y) {
    std::memcpy(first + static_cast<size_t>(y) * width_, first, row_bytes);
  }
}

void PixelImage::Blit(const PixelImage& src, const Rect& src_rect, Point dst_origin) {
  Rect source = src_rect.Intersect(src.bounds());
  Rect target =
      Rect{dst_origin.x, dst_origin.y, source.width, source.height}.Intersect(bounds());
  if (target.IsEmpty()) {
    return;
  }
  const int sx = source.x + (target.x - dst_origin.x);
  const int sy = source.y + (target.y - dst_origin.y);
  const size_t row_bytes = static_cast<size_t>(target.width) * sizeof(Color);
  for (int y = 0; y < target.height; ++y) {
    std::memcpy(&pixels_[static_cast<size_t>(target.y + y) * width_ + target.x],
                &src.pixels_[static_cast<size_t>(sy + y) * src.width_ + sx], row_bytes);
  }
}

void PixelImage::Resize(int width, int height, Color fill) {
  width_ = width > 0 ? width : 0;
  height_ = height > 0 ? height : 0;
  pixels_.assign(static_cast<size_t>(width_) * height_, fill);
}

int64_t PixelImage::DiffCount(const PixelImage& other) const {
  int64_t diff = 0;
  int max_w = std::max(width_, other.width_);
  int max_h = std::max(height_, other.height_);
  for (int y = 0; y < max_h; ++y) {
    for (int x = 0; x < max_w; ++x) {
      if (GetPixel(x, y) != other.GetPixel(x, y)) {
        ++diff;
      }
    }
  }
  return diff;
}

uint64_t PixelImage::Hash() const {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint8_t byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  mix(static_cast<uint8_t>(width_));
  mix(static_cast<uint8_t>(width_ >> 8));
  mix(static_cast<uint8_t>(height_));
  mix(static_cast<uint8_t>(height_ >> 8));
  for (const Color& c : pixels_) {
    mix(c.r);
    mix(c.g);
    mix(c.b);
  }
  return hash;
}

std::string PixelImage::ToPpm() const {
  std::ostringstream out;
  out << "P3\n" << width_ << " " << height_ << "\n255\n";
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const Color& c = pixels_[static_cast<size_t>(y) * width_ + x];
      out << int{c.r} << " " << int{c.g} << " " << int{c.b};
      out << (x + 1 == width_ ? '\n' : ' ');
    }
  }
  return out.str();
}

std::string PixelImage::ToAscii() const {
  std::string out;
  out.reserve(static_cast<size_t>(height_) * (width_ + 1));
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      out += GetPixel(x, y).Luminance() < 128 ? '#' : '.';
    }
    out += '\n';
  }
  return out;
}

}  // namespace atk
