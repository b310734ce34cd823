#include "src/graphics/graphic.h"

#include <algorithm>
#include <cmath>

namespace atk {

ATK_DEFINE_ABSTRACT_CLASS(Graphic, Object, "graphic")
ATK_DEFINE_CLASS(ImageGraphic, Graphic, "imagegraphic")

Graphic::Graphic() : font_(&Font::Default()) {}

void Graphic::SetDeviceBounds(const Rect& device_bounds) {
  device_bounds_ = device_bounds;
  device_clip_ = device_bounds;
  clip_stack_.clear();
}

void Graphic::PushClip(const Rect& local) {
  clip_stack_.push_back(device_clip_);
  Rect device = local.Translated(device_bounds_.x, device_bounds_.y);
  device_clip_ = device_clip_.Intersect(device);
}

void Graphic::PopClip() {
  if (!clip_stack_.empty()) {
    device_clip_ = clip_stack_.back();
    clip_stack_.pop_back();
  }
}

Rect Graphic::CurrentClipLocal() const {
  return device_clip_.Translated(-device_bounds_.x, -device_bounds_.y);
}

void Graphic::Plot(int local_x, int local_y, Color c) {
  int dx = local_x + device_bounds_.x;
  int dy = local_y + device_bounds_.y;
  if (!device_clip_.Contains(Point{dx, dy})) {
    return;
  }
  switch (transfer_mode_) {
    case TransferMode::kCopy:
      DevicePlot(dx, dy, c);
      break;
    case TransferMode::kOr: {
      Color cur = DeviceRead(dx, dy);
      DevicePlot(dx, dy,
                 Color{std::min(cur.r, c.r), std::min(cur.g, c.g), std::min(cur.b, c.b)});
      break;
    }
    case TransferMode::kXor: {
      Color cur = DeviceRead(dx, dy);
      DevicePlot(dx, dy, Color{static_cast<uint8_t>(cur.r ^ c.r),
                               static_cast<uint8_t>(cur.g ^ c.g),
                               static_cast<uint8_t>(cur.b ^ c.b)});
      break;
    }
    case TransferMode::kInvert:
      DevicePlot(dx, dy, DeviceRead(dx, dy).Inverted());
      break;
  }
}

void Graphic::DeviceFillRect(const Rect& device_rect, Color c) {
  for (int y = device_rect.top(); y < device_rect.bottom(); ++y) {
    for (int x = device_rect.left(); x < device_rect.right(); ++x) {
      DevicePlot(x, y, c);
    }
  }
}

void Graphic::DrawPoint(Point p) {
  CountOp();
  Plot(p.x, p.y, foreground_);
}

void Graphic::LineTo(Point p) {
  DrawLine(current_point_, p);
  current_point_ = p;
}

void Graphic::ThickLine(Point a, Point b, Color c) {
  // Bresenham, stamped with a line_width_-sized square for thick lines.
  int dx = std::abs(b.x - a.x);
  int dy = -std::abs(b.y - a.y);
  int sx = a.x < b.x ? 1 : -1;
  int sy = a.y < b.y ? 1 : -1;
  int err = dx + dy;
  int x = a.x;
  int y = a.y;
  int half = (line_width_ - 1) / 2;
  while (true) {
    if (line_width_ == 1) {
      Plot(x, y, c);
    } else {
      for (int oy = -half; oy < line_width_ - half; ++oy) {
        for (int ox = -half; ox < line_width_ - half; ++ox) {
          Plot(x + ox, y + oy, c);
        }
      }
    }
    if (x == b.x && y == b.y) {
      break;
    }
    int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y += sy;
    }
  }
}

void Graphic::DrawLine(Point a, Point b) {
  CountOp();
  ThickLine(a, b, foreground_);
}

void Graphic::DrawRect(const Rect& r) {
  CountOp();
  if (r.IsEmpty()) {
    return;
  }
  Point tl{r.left(), r.top()};
  Point tr{r.right() - 1, r.top()};
  Point bl{r.left(), r.bottom() - 1};
  Point br{r.right() - 1, r.bottom() - 1};
  ThickLine(tl, tr, foreground_);
  ThickLine(tr, br, foreground_);
  ThickLine(br, bl, foreground_);
  ThickLine(bl, tl, foreground_);
}

void Graphic::FillRectInternal(const Rect& local, Color c) {
  if (transfer_mode_ == TransferMode::kCopy) {
    Rect device = local.Translated(device_bounds_.x, device_bounds_.y).Intersect(device_clip_);
    if (!device.IsEmpty()) {
      DeviceFillRect(device, c);
    }
    return;
  }
  for (int y = local.top(); y < local.bottom(); ++y) {
    for (int x = local.left(); x < local.right(); ++x) {
      Plot(x, y, c);
    }
  }
}

void Graphic::FillRect(const Rect& r) {
  CountOp();
  FillRectInternal(r, foreground_);
}

void Graphic::FillRect(const Rect& r, Color c) {
  CountOp();
  FillRectInternal(r, c);
}

void Graphic::EraseRect(const Rect& r) {
  CountOp();
  FillRectInternal(r, background_);
}

void Graphic::InvertRect(const Rect& r) {
  CountOp();
  Rect device = r.Translated(device_bounds_.x, device_bounds_.y).Intersect(device_clip_);
  for (int y = device.top(); y < device.bottom(); ++y) {
    for (int x = device.left(); x < device.right(); ++x) {
      DevicePlot(x, y, DeviceRead(x, y).Inverted());
    }
  }
}

void Graphic::DrawEllipse(const Rect& box) {
  CountOp();
  if (box.IsEmpty()) {
    return;
  }
  double cx = box.x + box.width / 2.0;
  double cy = box.y + box.height / 2.0;
  double rx = box.width / 2.0;
  double ry = box.height / 2.0;
  int steps = 4 * (box.width + box.height);
  if (steps < 16) {
    steps = 16;
  }
  for (int i = 0; i < steps; ++i) {
    double t = 2.0 * M_PI * i / steps;
    int x = static_cast<int>(std::lround(cx + (rx - 0.5) * std::cos(t)));
    int y = static_cast<int>(std::lround(cy + (ry - 0.5) * std::sin(t)));
    Plot(x, y, foreground_);
  }
}

void Graphic::FillEllipse(const Rect& box) {
  CountOp();
  if (box.IsEmpty()) {
    return;
  }
  double cx = box.x + box.width / 2.0;
  double cy = box.y + box.height / 2.0;
  double rx = box.width / 2.0;
  double ry = box.height / 2.0;
  for (int y = box.top(); y < box.bottom(); ++y) {
    double ny = (y + 0.5 - cy) / ry;
    double rem = 1.0 - ny * ny;
    if (rem < 0) {
      continue;
    }
    double half = rx * std::sqrt(rem);
    int x0 = static_cast<int>(std::ceil(cx - half - 0.5));
    int x1 = static_cast<int>(std::floor(cx + half - 0.5));
    for (int x = x0; x <= x1; ++x) {
      Plot(x, y, foreground_);
    }
  }
}

void Graphic::DrawPolyline(std::span<const Point> points) {
  CountOp();
  for (size_t i = 1; i < points.size(); ++i) {
    ThickLine(points[i - 1], points[i], foreground_);
  }
}

void Graphic::DrawPolygon(std::span<const Point> points) {
  CountOp();
  if (points.size() < 2) {
    return;
  }
  for (size_t i = 1; i < points.size(); ++i) {
    ThickLine(points[i - 1], points[i], foreground_);
  }
  ThickLine(points.back(), points.front(), foreground_);
}

void Graphic::ScanFillPolygon(std::span<const Point> points, Color c) {
  if (points.size() < 3) {
    return;
  }
  int min_y = points[0].y;
  int max_y = points[0].y;
  for (const Point& p : points) {
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  std::vector<int> xs;
  for (int y = min_y; y <= max_y; ++y) {
    xs.clear();
    double sample = y + 0.5;
    size_t n = points.size();
    for (size_t i = 0; i < n; ++i) {
      const Point& a = points[i];
      const Point& b = points[(i + 1) % n];
      if ((a.y <= sample && b.y > sample) || (b.y <= sample && a.y > sample)) {
        double t = (sample - a.y) / static_cast<double>(b.y - a.y);
        xs.push_back(static_cast<int>(std::lround(a.x + t * (b.x - a.x))));
      }
    }
    std::sort(xs.begin(), xs.end());
    for (size_t i = 0; i + 1 < xs.size(); i += 2) {
      for (int x = xs[i]; x < xs[i + 1]; ++x) {
        Plot(x, y, c);
      }
    }
  }
}

void Graphic::FillPolygon(std::span<const Point> points) {
  CountOp();
  ScanFillPolygon(points, foreground_);
}

void Graphic::DrawString(Point top_left, std::string_view text) {
  CountOp();
  const Font& f = *font_;
  const int cell_w = f.advance();
  int x = top_left.x;  // Left edge of the current cell, local coordinates.
  for (char ch : text) {
    // Glyph ink lives in the ascent band; a cell outside the clip has none.
    Rect cell = Rect{x, top_left.y, cell_w, f.ascent()}.Translated(device_bounds_.x,
                                                                     device_bounds_.y);
    if (!cell.Intersects(device_clip_)) {
      x += cell_w;
      continue;
    }
    std::span<const GlyphSpan> spans = f.GlyphSpans(ch);
    if (transfer_mode_ == TransferMode::kCopy) {
      for (const GlyphSpan& s : spans) {
        Rect device =
            Rect{cell.x + s.x0, cell.y + s.y, s.x1 - s.x0, s.rows}.Intersect(device_clip_);
        if (!device.IsEmpty()) {
          DeviceFillRect(device, foreground_);
        }
      }
    } else {
      // Read-modify-write modes plot pixel by pixel in row-major order: row
      // by row through each band of spans that share a y.
      for (size_t band = 0; band < spans.size();) {
        size_t band_end = band;
        while (band_end < spans.size() && spans[band_end].y == spans[band].y) {
          ++band_end;
        }
        for (int y = spans[band].y; y < spans[band].y + spans[band].rows; ++y) {
          for (size_t k = band; k < band_end; ++k) {
            for (int gx = spans[k].x0; gx < spans[k].x1; ++gx) {
              Plot(x + gx, top_left.y + y, foreground_);
            }
          }
        }
        band = band_end;
      }
    }
    x += cell_w;
  }
}

void Graphic::DrawImage(const PixelImage& src, const Rect& src_rect, Point dst_top_left) {
  CountOp();
  Rect source = src_rect.Intersect(src.bounds());
  for (int y = 0; y < source.height; ++y) {
    for (int x = 0; x < source.width; ++x) {
      Plot(dst_top_left.x + x, dst_top_left.y + y, src.GetPixel(source.x + x, source.y + y));
    }
  }
}

void Graphic::Clear() {
  CountOp();
  FillRectInternal(LocalBounds(), background_);
}

// ---- ImageGraphic ----------------------------------------------------------

ImageGraphic::ImageGraphic() = default;

ImageGraphic::ImageGraphic(PixelImage* target, const Rect& device_bounds) {
  Attach(target, device_bounds);
}

void ImageGraphic::Attach(PixelImage* target, const Rect& device_bounds) {
  target_ = target;
  SetDeviceBounds(device_bounds);
}

std::unique_ptr<Graphic> ImageGraphic::CreateSub(const Rect& local_bounds) {
  Rect device = local_bounds.Translated(device_bounds().x, device_bounds().y);
  auto sub = std::make_unique<ImageGraphic>(target_, device);
  // A child can never draw outside its parent's current clip.
  Rect parent_clip_in_child = device_clip().Translated(-device.x, -device.y);
  sub->PushClip(parent_clip_in_child.Intersect(sub->LocalBounds()));
  return sub;
}

void ImageGraphic::DevicePlot(int x, int y, Color c) {
  if (target_ != nullptr) {
    target_->SetPixel(x, y, c);
  }
}

Color ImageGraphic::DeviceRead(int x, int y) const {
  return target_ == nullptr ? kWhite : target_->GetPixel(x, y);
}

void ImageGraphic::DeviceFillRect(const Rect& device_rect, Color c) {
  if (target_ != nullptr) {
    target_->FillRect(device_rect, c);
  }
}

}  // namespace atk
