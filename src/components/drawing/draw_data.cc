#include "src/components/drawing/draw_data.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/base/default_views.h"
#include "src/datastream/directive_args.h"

namespace atk {

ATK_DEFINE_CLASS(DrawData, DataObject, "draw")

DrawData::DrawData() = default;

DrawData::~DrawData() = default;

int DrawData::PushShape(Shape shape) {
  shapes_.push_back(std::move(shape));
  int index = static_cast<int>(shapes_.size()) - 1;
  NotifyShape(index, Change::Kind::kInserted);
  return index;
}

void DrawData::NotifyShape(int index, Change::Kind kind) {
  Change change;
  change.kind = kind;
  change.pos = index;
  change.added = kind == Change::Kind::kInserted ? 1 : 0;
  change.removed = kind == Change::Kind::kDeleted ? 1 : 0;
  NotifyObservers(change);
}

int DrawData::AddLine(Point a, Point b, int line_width) {
  Shape shape;
  shape.kind = ShapeKind::kLine;
  shape.points = {a, b};
  shape.line_width = line_width;
  return PushShape(std::move(shape));
}

int DrawData::AddRect(const Rect& box, bool filled) {
  Shape shape;
  shape.kind = ShapeKind::kRect;
  shape.box = box;
  shape.filled = filled;
  return PushShape(std::move(shape));
}

int DrawData::AddEllipse(const Rect& box, bool filled) {
  Shape shape;
  shape.kind = ShapeKind::kEllipse;
  shape.box = box;
  shape.filled = filled;
  return PushShape(std::move(shape));
}

int DrawData::AddPolyline(std::vector<Point> points, int line_width) {
  Shape shape;
  shape.kind = ShapeKind::kPolyline;
  shape.points = std::move(points);
  shape.line_width = line_width;
  return PushShape(std::move(shape));
}

int DrawData::AddText(const Rect& box, std::string_view content) {
  Shape shape;
  shape.kind = ShapeKind::kText;
  shape.box = box;
  shape.text = std::make_unique<TextData>();
  shape.text->SetText(content);
  return PushShape(std::move(shape));
}

int DrawData::AddObject(const Rect& box, std::unique_ptr<DataObject> object,
                        std::string_view view_type) {
  if (object == nullptr) {
    return -1;
  }
  Shape shape;
  shape.kind = ShapeKind::kObject;
  shape.box = box;
  shape.view_type =
      view_type.empty() ? DefaultViewName(object->DataTypeName()) : std::string(view_type);
  shape.object = std::move(object);
  return PushShape(std::move(shape));
}

void DrawData::RemoveShape(int index) {
  if (index < 0 || index >= shape_count()) {
    return;
  }
  shapes_.erase(shapes_.begin() + index);
  NotifyShape(index, Change::Kind::kDeleted);
}

void DrawData::MoveShape(int index, int dx, int dy) {
  if (index < 0 || index >= shape_count()) {
    return;
  }
  Shape& shape = shapes_[static_cast<size_t>(index)];
  for (Point& p : shape.points) {
    p.x += dx;
    p.y += dy;
  }
  shape.box = shape.box.Translated(dx, dy);
  NotifyShape(index, Change::Kind::kReplaced);
}

namespace {

double DistanceToSegment(Point p, Point a, Point b) {
  double vx = b.x - a.x;
  double vy = b.y - a.y;
  double wx = p.x - a.x;
  double wy = p.y - a.y;
  double len2 = vx * vx + vy * vy;
  double t = len2 > 0 ? std::clamp((wx * vx + wy * vy) / len2, 0.0, 1.0) : 0.0;
  double dx = wx - t * vx;
  double dy = wy - t * vy;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

int DrawData::ShapeAt(Point p, int slop) const {
  // Topmost = latest in the list (painter's order).
  for (int i = shape_count() - 1; i >= 0; --i) {
    const Shape& shape = shapes_[static_cast<size_t>(i)];
    switch (shape.kind) {
      case ShapeKind::kLine:
      case ShapeKind::kPolyline: {
        for (size_t j = 0; j + 1 < shape.points.size(); ++j) {
          if (DistanceToSegment(p, shape.points[j], shape.points[j + 1]) <= slop) {
            return i;
          }
        }
        break;
      }
      case ShapeKind::kRect:
      case ShapeKind::kEllipse: {
        if (shape.filled ? shape.box.Inset(-slop).Contains(p)
                         : shape.box.Inset(-slop).Contains(p) &&
                               !shape.box.Inset(slop).Contains(p)) {
          return i;
        }
        break;
      }
      case ShapeKind::kText:
      case ShapeKind::kObject:
        if (shape.box.Contains(p)) {
          return i;
        }
        break;
    }
  }
  return -1;
}

Rect DrawData::ContentBounds() const {
  Rect bounds;
  for (const Shape& shape : shapes_) {
    switch (shape.kind) {
      case ShapeKind::kLine:
      case ShapeKind::kPolyline:
        for (const Point& p : shape.points) {
          bounds = bounds.Union(Rect{p.x, p.y, 1, 1});
        }
        break;
      default:
        bounds = bounds.Union(shape.box);
        break;
    }
  }
  return bounds;
}

void DrawData::WriteBody(DataStreamWriter& writer) const {
  for (const Shape& shape : shapes_) {
    std::ostringstream args;
    switch (shape.kind) {
      case ShapeKind::kLine:
      case ShapeKind::kPolyline: {
        args << (shape.kind == ShapeKind::kLine ? "line" : "poly") << "," << shape.line_width;
        for (const Point& p : shape.points) {
          args << "," << p.x << "," << p.y;
        }
        writer.WriteDirective("shape", args.str());
        writer.WriteNewline();
        break;
      }
      case ShapeKind::kRect:
      case ShapeKind::kEllipse: {
        args << (shape.kind == ShapeKind::kRect ? "rect" : "ellipse") << ","
             << (shape.filled ? 1 : 0) << "," << shape.box.x << "," << shape.box.y << ","
             << shape.box.width << "," << shape.box.height;
        writer.WriteDirective("shape", args.str());
        writer.WriteNewline();
        break;
      }
      case ShapeKind::kText: {
        args << shape.box.x << "," << shape.box.y << "," << shape.box.width << ","
             << shape.box.height;
        writer.WriteDirective("shapetext", args.str());
        writer.WriteNewline();
        int64_t id = shape.text->Write(writer);
        writer.WriteViewReference("textview", id);
        writer.WriteNewline();
        break;
      }
      case ShapeKind::kObject: {
        args << shape.box.x << "," << shape.box.y << "," << shape.box.width << ","
             << shape.box.height;
        writer.WriteDirective("shapeobject", args.str());
        writer.WriteNewline();
        int64_t id = shape.object->Write(writer);
        writer.WriteViewReference(shape.view_type, id);
        writer.WriteNewline();
        break;
      }
    }
  }
}

bool DrawData::ReadBody(DataStreamReader& reader, ReadContext& context) {
  using Kind = DataStreamReader::Token::Kind;
  shapes_.clear();
  Rect pending_box;
  bool pending_is_text = false;
  bool have_pending_box = false;
  std::vector<std::pair<int64_t, std::unique_ptr<DataObject>>> pending_children;
  bool ok = true;
  while (true) {
    DataStreamReader::Token token = reader.Next();
    if (token.kind == Kind::kEndData) {
      break;
    }
    if (token.kind == Kind::kEof) {
      ok = false;
      break;
    }
    switch (token.kind) {
      case Kind::kDirective: {
        DirectiveArgs args(token.text);
        if (token.type == "shape") {
          std::string_view kind;
          args.Name(kind);
          Shape shape;
          if (kind == "line" || kind == "poly") {
            shape.kind = kind == "line" ? ShapeKind::kLine : ShapeKind::kPolyline;
            if (args.Int(shape.line_width)) {
              Point p;
              while (args.Int(p.x) && args.Int(p.y)) {
                shape.points.push_back(p);
              }
              shapes_.push_back(std::move(shape));
            }
          } else if (kind == "rect" || kind == "ellipse") {
            shape.kind = kind == "rect" ? ShapeKind::kRect : ShapeKind::kEllipse;
            int filled = 0;
            if (args.Int(filled) && args.Int(shape.box.x) && args.Int(shape.box.y) &&
                args.Int(shape.box.width) && args.Int(shape.box.height)) {
              shape.filled = filled != 0;
              shapes_.push_back(std::move(shape));
            }
          }
        } else if (token.type == "shapetext" || token.type == "shapeobject") {
          Rect box;
          if (args.Int(box.x) && args.Int(box.y) && args.Int(box.width) &&
              args.Int(box.height)) {
            pending_box = box;
            have_pending_box = true;
            pending_is_text = token.type == "shapetext";
          }
        }
        break;
      }
      case Kind::kBeginData: {
        std::unique_ptr<DataObject> child =
            ReadObjectBody(reader, context, std::string(token.type), token.id);
        if (child != nullptr) {
          pending_children.emplace_back(token.id, std::move(child));
        }
        break;
      }
      case Kind::kViewRef: {
        auto it = std::find_if(pending_children.begin(), pending_children.end(),
                               [&](const auto& pair) { return pair.first == token.id; });
        if (it == pending_children.end() || !have_pending_box) {
          context.AddError("drawing \\view reference without placement");
          break;
        }
        Shape shape;
        shape.box = pending_box;
        if (pending_is_text) {
          std::unique_ptr<DataObject> child = std::move(it->second);
          TextData* as_text = ObjectCast<TextData>(child.get());
          if (as_text != nullptr) {
            shape.kind = ShapeKind::kText;
            child.release();
            shape.text.reset(as_text);
          } else {
            shape.kind = ShapeKind::kObject;
            shape.object = std::move(child);
            shape.view_type = token.type;
          }
        } else {
          shape.kind = ShapeKind::kObject;
          shape.object = std::move(it->second);
          shape.view_type = token.type;
        }
        pending_children.erase(it);
        have_pending_box = false;
        shapes_.push_back(std::move(shape));
        break;
      }
      default:
        break;
    }
  }
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
  return ok;
}

}  // namespace atk
