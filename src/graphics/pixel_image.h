// An in-memory RGB framebuffer.  Every window (and offscreen window) in the
// simulated window systems renders into one of these, which is what lets the
// test suite assert on actual pixels.

#ifndef ATK_SRC_GRAPHICS_PIXEL_IMAGE_H_
#define ATK_SRC_GRAPHICS_PIXEL_IMAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graphics/color.h"
#include "src/graphics/geometry.h"

namespace atk {

class PixelImage {
 public:
  PixelImage() = default;
  PixelImage(int width, int height, Color fill = kWhite);

  int width() const { return width_; }
  int height() const { return height_; }
  Rect bounds() const { return Rect{0, 0, width_, height_}; }

  // Out-of-range coordinates are ignored / read as white.
  void SetPixel(int x, int y, Color c);
  Color GetPixel(int x, int y) const;
  bool InBounds(int x, int y) const { return x >= 0 && x < width_ && y >= 0 && y < height_; }

  void Fill(Color c);
  void FillRect(const Rect& rect, Color c);

  // Copies `src_rect` of `src` to `dst_origin` here, clipping both ends:
  // the clipped source's origin lands on `dst_origin`.  `src` must not be
  // this image.
  void Blit(const PixelImage& src, const Rect& src_rect, Point dst_origin);

  // Discards contents and reallocates.
  void Resize(int width, int height, Color fill = kWhite);

  // Number of pixels differing from `other` (size mismatch counts the
  // non-overlapping area as different).
  int64_t DiffCount(const PixelImage& other) const;

  // FNV-1a over the pixel data; used by golden-image style tests.
  uint64_t Hash() const;

  // Portable pixmap (P3, ASCII) dump for debugging and the printer backend.
  std::string ToPpm() const;

  // Compact ASCII rendering: '#' for dark pixels, '.' for light — handy in
  // test failure messages for small images.
  std::string ToAscii() const;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Color> pixels_;
};

}  // namespace atk

#endif  // ATK_SRC_GRAPHICS_PIXEL_IMAGE_H_
