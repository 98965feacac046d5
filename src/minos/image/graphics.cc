#include "minos/image/graphics.h"

#include <algorithm>
#include <cstdlib>

#include "minos/util/coding.h"

namespace minos::image {

namespace {

/// Distance from point to segment squared comparison helper: returns true
/// when (px,py) lies within `slack` of segment a-b.
bool NearSegment(Point a, Point b, int px, int py, int slack) {
  const double vx = b.x - a.x, vy = b.y - a.y;
  const double wx = px - a.x, wy = py - a.y;
  const double len2 = vx * vx + vy * vy;
  double t = len2 > 0 ? (wx * vx + wy * vy) / len2 : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  const double dx = wx - t * vx, dy = wy - t * vy;
  return dx * dx + dy * dy <= static_cast<double>(slack) * slack;
}

/// Even-odd point-in-polygon test.
bool InsidePolygon(const std::vector<Point>& poly, int px, int py) {
  bool inside = false;
  for (size_t i = 0, j = poly.size() - 1; i < poly.size(); j = i++) {
    const Point& a = poly[i];
    const Point& b = poly[j];
    if ((a.y > py) != (b.y > py)) {
      const double x_at =
          a.x + static_cast<double>(py - a.y) / (b.y - a.y) * (b.x - a.x);
      if (px < x_at) inside = !inside;
    }
  }
  return inside;
}

}  // namespace

Rect GraphicsObject::BoundingBox() const {
  if (shape == ShapeKind::kCircle) {
    if (vertices.empty()) return Rect{};
    return Rect{vertices[0].x - radius, vertices[0].y - radius,
                2 * radius + 1, 2 * radius + 1};
  }
  if (vertices.empty()) return Rect{};
  int x0 = vertices[0].x, y0 = vertices[0].y;
  int x1 = x0, y1 = y0;
  for (const Point& p : vertices) {
    x0 = std::min(x0, p.x);
    y0 = std::min(y0, p.y);
    x1 = std::max(x1, p.x);
    y1 = std::max(y1, p.y);
  }
  return Rect{x0, y0, x1 - x0 + 1, y1 - y0 + 1};
}

bool GraphicsObject::HitTest(int x, int y, int slack) const {
  switch (shape) {
    case ShapeKind::kPoint:
      return !vertices.empty() && std::abs(vertices[0].x - x) <= slack &&
             std::abs(vertices[0].y - y) <= slack;
    case ShapeKind::kPolyline: {
      for (size_t i = 0; i + 1 < vertices.size(); ++i) {
        if (NearSegment(vertices[i], vertices[i + 1], x, y, slack)) {
          return true;
        }
      }
      return false;
    }
    case ShapeKind::kPolygon: {
      if (vertices.size() < 3) return false;
      if (InsidePolygon(vertices, x, y)) return true;
      for (size_t i = 0, j = vertices.size() - 1; i < vertices.size();
           j = i++) {
        if (NearSegment(vertices[j], vertices[i], x, y, slack)) return true;
      }
      return false;
    }
    case ShapeKind::kCircle: {
      if (vertices.empty()) return false;
      const double dx = x - vertices[0].x, dy = y - vertices[0].y;
      const double d = dx * dx + dy * dy;
      const double r_out = static_cast<double>(radius + slack);
      if (filled) return d <= r_out * r_out;
      const double r_in =
          radius > slack ? static_cast<double>(radius - slack) : 0.0;
      return d <= r_out * r_out && d >= r_in * r_in;
    }
  }
  return false;
}

uint32_t GraphicsImage::Add(GraphicsObject object) {
  object.id = next_id_++;
  objects_.push_back(std::move(object));
  return objects_.back().id;
}

StatusOr<GraphicsObject> GraphicsImage::Find(uint32_t id) const {
  for (const GraphicsObject& o : objects_) {
    if (o.id == id) return o;
  }
  return Status::NotFound("no graphics object with that id");
}

StatusOr<GraphicsObject> GraphicsImage::ObjectAt(int x, int y) const {
  for (auto it = objects_.rbegin(); it != objects_.rend(); ++it) {
    if (it->HitTest(x, y)) return *it;
  }
  return Status::NotFound("no graphics object at that position");
}

std::vector<uint32_t> GraphicsImage::MatchLabels(
    std::string_view pattern) const {
  std::vector<uint32_t> ids;
  if (pattern.empty()) return ids;
  for (const GraphicsObject& o : objects_) {
    if (o.label.kind == LabelKind::kNone) continue;
    if (o.label.text.find(pattern) != std::string::npos) {
      ids.push_back(o.id);
    }
  }
  return ids;
}

std::string GraphicsImage::Serialize() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(width_));
  PutVarint32(&out, static_cast<uint32_t>(height_));
  PutVarint32(&out, next_id_);
  PutVarint64(&out, objects_.size());
  for (const GraphicsObject& o : objects_) {
    PutVarint32(&out, o.id);
    out.push_back(static_cast<char>(o.shape));
    PutVarint64(&out, o.vertices.size());
    for (const Point& p : o.vertices) {
      PutVarint32(&out, static_cast<uint32_t>(p.x));
      PutVarint32(&out, static_cast<uint32_t>(p.y));
    }
    PutVarint32(&out, static_cast<uint32_t>(o.radius));
    out.push_back(o.filled ? 1 : 0);
    out.push_back(static_cast<char>(o.ink));
    out.push_back(static_cast<char>(o.label.kind));
    PutLengthPrefixed(&out, o.label.text);
    PutVarint32(&out, static_cast<uint32_t>(o.label.anchor.x));
    PutVarint32(&out, static_cast<uint32_t>(o.label.anchor.y));
  }
  return out;
}

StatusOr<GraphicsImage> GraphicsImage::Deserialize(std::string_view bytes) {
  Decoder dec(bytes);
  uint32_t w = 0, h = 0, next_id = 0;
  uint64_t n = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&w));
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&h));
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&next_id));
  MINOS_RETURN_IF_ERROR(dec.GetVarint64(&n));
  GraphicsImage img(static_cast<int>(w), static_cast<int>(h));
  img.next_id_ = next_id;
  for (uint64_t i = 0; i < n; ++i) {
    GraphicsObject o;
    MINOS_RETURN_IF_ERROR(dec.GetVarint32(&o.id));
    std::string b;
    MINOS_RETURN_IF_ERROR(dec.GetRaw(1, &b));
    o.shape = static_cast<ShapeKind>(static_cast<uint8_t>(b[0]));
    uint64_t nv = 0;
    MINOS_RETURN_IF_ERROR(dec.GetVarint64(&nv));
    // Every vertex takes at least two bytes, so a forged count cannot
    // reserve more than the input could hold.
    o.vertices.reserve(std::min<uint64_t>(nv, dec.remaining() / 2));
    for (uint64_t v = 0; v < nv; ++v) {
      uint32_t x = 0, y = 0;
      MINOS_RETURN_IF_ERROR(dec.GetVarint32(&x));
      MINOS_RETURN_IF_ERROR(dec.GetVarint32(&y));
      o.vertices.push_back(
          Point{static_cast<int>(x), static_cast<int>(y)});
    }
    uint32_t radius = 0;
    MINOS_RETURN_IF_ERROR(dec.GetVarint32(&radius));
    o.radius = static_cast<int>(radius);
    MINOS_RETURN_IF_ERROR(dec.GetRaw(3, &b));
    o.filled = b[0] != 0;
    o.ink = static_cast<uint8_t>(b[1]);
    o.label.kind = static_cast<LabelKind>(static_cast<uint8_t>(b[2]));
    MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&o.label.text));
    uint32_t ax = 0, ay = 0;
    MINOS_RETURN_IF_ERROR(dec.GetVarint32(&ax));
    MINOS_RETURN_IF_ERROR(dec.GetVarint32(&ay));
    o.label.anchor = Point{static_cast<int>(ax), static_cast<int>(ay)};
    img.objects_.push_back(std::move(o));
  }
  return img;
}

}  // namespace minos::image
