// The drawable — §4's third basic object type.
//
// A Graphic hides the output model of the display medium.  It carries a small
// graphics state (current point, colors, font, line width, transfer mode), a
// coordinate origin, and a clip; all drawing ops take coordinates local to
// the view that owns the graphic.  Views draw *only* through their Graphic,
// which is what makes repointing a view at a printer drawable sufficient for
// printing, and what keeps everything above this layer window-system
// independent.
//
// The base class implements every op in terms of two device primitives
// (DevicePlot / DeviceRead), so a backend only supplies pixels.  Backends may
// override DeviceFillRect for speed.  Each public op is tallied, which gives
// the simulated X11 backend its protocol-request accounting.

#ifndef ATK_SRC_GRAPHICS_GRAPHIC_H_
#define ATK_SRC_GRAPHICS_GRAPHIC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/class_system/object.h"
#include "src/graphics/color.h"
#include "src/graphics/font.h"
#include "src/graphics/geometry.h"
#include "src/graphics/pixel_image.h"

namespace atk {

enum class TransferMode {
  kCopy,    // dst = src
  kOr,      // dst = darker(dst, src)   (union of ink on a white page)
  kXor,     // dst = dst ^ src          (reversible highlight)
  kInvert,  // dst = ~dst               (src color ignored)
};

class Graphic : public Object {
  ATK_DECLARE_CLASS(Graphic)

 public:
  Graphic();
  ~Graphic() override = default;

  // ---- Graphics state ----------------------------------------------------
  void MoveTo(Point p) { current_point_ = p; }
  Point current_point() const { return current_point_; }

  void SetForeground(Color c) { foreground_ = c; }
  void SetBackground(Color c) { background_ = c; }
  Color foreground() const { return foreground_; }
  Color background() const { return background_; }

  void SetFont(const FontSpec& spec) { font_ = &Font::Get(spec); }
  const Font& font() const { return *font_; }

  void SetLineWidth(int w) { line_width_ = w < 1 ? 1 : w; }
  int line_width() const { return line_width_; }

  void SetTransferMode(TransferMode m) { transfer_mode_ = m; }
  TransferMode transfer_mode() const { return transfer_mode_; }

  // ---- Geometry ----------------------------------------------------------
  // The local coordinate space runs from (0,0) to (width, height) of the
  // view's allocation.
  Rect LocalBounds() const { return Rect{0, 0, device_bounds_.width, device_bounds_.height}; }
  int width() const { return device_bounds_.width; }
  int height() const { return device_bounds_.height; }
  // Where local (0,0) sits on the device (window framebuffer).
  Point device_origin() const { return device_bounds_.origin(); }
  Rect device_bounds() const { return device_bounds_; }

  // ---- Clipping ----------------------------------------------------------
  // Clip rectangles are in local coordinates and nest: a pushed clip is
  // intersected with the current one.
  void PushClip(const Rect& local);
  void PopClip();
  Rect CurrentClipLocal() const;

  // ---- Drawing operations (local coordinates) -----------------------------
  void DrawPoint(Point p);
  void LineTo(Point p);
  void DrawLine(Point a, Point b);
  void DrawRect(const Rect& r);
  void FillRect(const Rect& r);
  void FillRect(const Rect& r, Color c);
  // Fills with the background color.
  void EraseRect(const Rect& r);
  // Inverts pixels (selection highlight), regardless of transfer mode.
  void InvertRect(const Rect& r);
  void DrawEllipse(const Rect& box);
  void FillEllipse(const Rect& box);
  void DrawPolyline(std::span<const Point> points);
  void DrawPolygon(std::span<const Point> points);
  void FillPolygon(std::span<const Point> points);
  // `top_left` anchors the first character cell; the baseline sits at
  // top_left.y + font().ascent().
  void DrawString(Point top_left, std::string_view text);
  void DrawImage(const PixelImage& src, const Rect& src_rect, Point dst_top_left);
  // Fills the whole local bounds with the background color.
  void Clear();

  // ---- Sub-graphics ------------------------------------------------------
  // A graphic for a child view: origin advanced to `local_bounds`' corner,
  // clip restricted to it.  The child cannot draw outside its allocation.
  virtual std::unique_ptr<Graphic> CreateSub(const Rect& local_bounds) = 0;

  // ---- Accounting ----------------------------------------------------------
  // Count of public drawing ops issued through this graphic (not including
  // sub-graphics).  The window systems use this as the request count.
  uint64_t op_count() const { return op_count_; }
  void ResetOpCount() { op_count_ = 0; }

 protected:
  // Writes one device pixel; called only with coordinates already inside the
  // clip.  `c` has the transfer mode already applied.
  virtual void DevicePlot(int x, int y, Color c) = 0;
  // Reads one device pixel (for Xor/Invert modes).
  virtual Color DeviceRead(int x, int y) const = 0;
  // Fast path for solid rectangles (fills, and the glyph spans DrawString
  // blits); `device_rect` is clipped already and the transfer mode is kCopy.
  // Default loops DevicePlot.
  virtual void DeviceFillRect(const Rect& device_rect, Color c);

  // Initializes geometry; for use by backend constructors.
  void SetDeviceBounds(const Rect& device_bounds);

  void CountOp() { ++op_count_; }

  // Applies origin, clip, and transfer mode, then plots.
  void Plot(int local_x, int local_y, Color c);

  // Current clip in device coordinates.
  const Rect& device_clip() const { return device_clip_; }

 private:
  void FillRectInternal(const Rect& local, Color c);
  void ThickLine(Point a, Point b, Color c);
  void ScanFillPolygon(std::span<const Point> points, Color c);

  Rect device_bounds_;
  Rect device_clip_;
  std::vector<Rect> clip_stack_;

  Point current_point_;
  Color foreground_ = kBlack;
  Color background_ = kWhite;
  const Font* font_;
  int line_width_ = 1;
  TransferMode transfer_mode_ = TransferMode::kCopy;
  uint64_t op_count_ = 0;
};

// A Graphic rendering into a PixelImage (the framebuffer of a simulated
// window or an offscreen buffer).  The image must outlive the graphic.
class ImageGraphic : public Graphic {
  ATK_DECLARE_CLASS(ImageGraphic)

 public:
  ImageGraphic();  // Unusable until Attach(); needed for named construction.
  ImageGraphic(PixelImage* target, const Rect& device_bounds);

  void Attach(PixelImage* target, const Rect& device_bounds);

  std::unique_ptr<Graphic> CreateSub(const Rect& local_bounds) override;

  PixelImage* target() const { return target_; }

 protected:
  void DevicePlot(int x, int y, Color c) override;
  Color DeviceRead(int x, int y) const override;
  void DeviceFillRect(const Rect& device_rect, Color c) override;

 private:
  PixelImage* target_ = nullptr;
};

}  // namespace atk

#endif  // ATK_SRC_GRAPHICS_GRAPHIC_H_
