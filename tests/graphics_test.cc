#include "minos/image/graphics.h"

#include <gtest/gtest.h>

#include "minos/util/coding.h"

namespace minos::image {
namespace {

GraphicsImage CityMap() {
  GraphicsImage img(200, 200);
  GraphicsObject hospital;
  hospital.shape = ShapeKind::kCircle;
  hospital.vertices = {{50, 50}};
  hospital.radius = 10;
  hospital.filled = true;
  hospital.label = {LabelKind::kText, "General Hospital", {62, 50}};
  img.Add(hospital);

  GraphicsObject university;
  university.shape = ShapeKind::kPolygon;
  university.vertices = {{100, 100}, {140, 100}, {140, 140}, {100, 140}};
  university.label = {LabelKind::kVoice, "the university campus", {120, 95}};
  img.Add(university);

  GraphicsObject subway;
  subway.shape = ShapeKind::kPolyline;
  subway.vertices = {{0, 180}, {100, 180}, {180, 120}};
  subway.label = {LabelKind::kInvisible, "subway line one", {90, 175}};
  img.Add(subway);
  return img;
}

TEST(GraphicsObjectTest, BoundingBoxes) {
  GraphicsObject circle;
  circle.shape = ShapeKind::kCircle;
  circle.vertices = {{50, 50}};
  circle.radius = 10;
  EXPECT_EQ(circle.BoundingBox(), (Rect{40, 40, 21, 21}));

  GraphicsObject poly;
  poly.shape = ShapeKind::kPolygon;
  poly.vertices = {{10, 20}, {30, 5}, {25, 40}};
  EXPECT_EQ(poly.BoundingBox(), (Rect{10, 5, 21, 36}));

  GraphicsObject empty;
  EXPECT_EQ(empty.BoundingBox(), (Rect{}));
}

TEST(GraphicsObjectTest, HitTestPoint) {
  GraphicsObject point;
  point.shape = ShapeKind::kPoint;
  point.vertices = {{10, 10}};
  EXPECT_TRUE(point.HitTest(10, 10));
  EXPECT_TRUE(point.HitTest(12, 11));
  EXPECT_FALSE(point.HitTest(15, 10));
}

TEST(GraphicsObjectTest, HitTestFilledCircle) {
  GraphicsObject circle;
  circle.shape = ShapeKind::kCircle;
  circle.vertices = {{50, 50}};
  circle.radius = 10;
  circle.filled = true;
  EXPECT_TRUE(circle.HitTest(50, 50));
  EXPECT_TRUE(circle.HitTest(57, 50));
  EXPECT_FALSE(circle.HitTest(65, 50));
}

TEST(GraphicsObjectTest, HitTestRingCircle) {
  GraphicsObject circle;
  circle.shape = ShapeKind::kCircle;
  circle.vertices = {{50, 50}};
  circle.radius = 10;
  circle.filled = false;
  EXPECT_TRUE(circle.HitTest(60, 50));   // On the ring.
  EXPECT_FALSE(circle.HitTest(50, 50));  // Hollow center.
}

TEST(GraphicsObjectTest, HitTestPolygonInterior) {
  GraphicsObject poly;
  poly.shape = ShapeKind::kPolygon;
  poly.vertices = {{0, 0}, {20, 0}, {20, 20}, {0, 20}};
  EXPECT_TRUE(poly.HitTest(10, 10));
  EXPECT_FALSE(poly.HitTest(30, 30));
}

TEST(GraphicsObjectTest, HitTestPolylineNearSegment) {
  GraphicsObject line;
  line.shape = ShapeKind::kPolyline;
  line.vertices = {{0, 0}, {100, 0}};
  EXPECT_TRUE(line.HitTest(50, 1));
  EXPECT_TRUE(line.HitTest(50, 2));
  EXPECT_FALSE(line.HitTest(50, 10));
  EXPECT_FALSE(line.HitTest(120, 0));
}

TEST(GraphicsImageTest, AddAssignsIds) {
  GraphicsImage img = CityMap();
  ASSERT_EQ(img.objects().size(), 3u);
  EXPECT_EQ(img.objects()[0].id, 1u);
  EXPECT_EQ(img.objects()[2].id, 3u);
}

TEST(GraphicsImageTest, FindById) {
  GraphicsImage img = CityMap();
  auto o = img.Find(2);
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o->label.text, "the university campus");
  EXPECT_TRUE(img.Find(99).status().IsNotFound());
}

TEST(GraphicsImageTest, ObjectAtReturnsTopmost) {
  GraphicsImage img(100, 100);
  GraphicsObject a, b;
  a.shape = b.shape = ShapeKind::kCircle;
  a.vertices = b.vertices = {{50, 50}};
  a.radius = b.radius = 10;
  a.filled = b.filled = true;
  const uint32_t id_a = img.Add(a);
  const uint32_t id_b = img.Add(b);
  (void)id_a;
  auto hit = img.ObjectAt(50, 50);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->id, id_b);  // Later object is on top.
  EXPECT_TRUE(img.ObjectAt(0, 0).status().IsNotFound());
}

TEST(GraphicsImageTest, MatchLabelsSubstring) {
  GraphicsImage img = CityMap();
  EXPECT_EQ(img.MatchLabels("Hospital").size(), 1u);
  EXPECT_EQ(img.MatchLabels("university").size(), 1u);
  EXPECT_EQ(img.MatchLabels("subway").size(), 1u);  // Invisible labels count.
  EXPECT_TRUE(img.MatchLabels("airport").empty());
  EXPECT_TRUE(img.MatchLabels("").empty());
}

TEST(GraphicsImageTest, SerializeRoundTrip) {
  GraphicsImage img = CityMap();
  auto restored = GraphicsImage::Deserialize(img.Serialize());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->objects().size(), 3u);
  EXPECT_EQ(restored->width(), 200);
  const GraphicsObject& poly = restored->objects()[1];
  EXPECT_EQ(poly.shape, ShapeKind::kPolygon);
  EXPECT_EQ(poly.vertices.size(), 4u);
  EXPECT_EQ(poly.label.kind, LabelKind::kVoice);
  EXPECT_EQ(poly.label.text, "the university campus");
  EXPECT_EQ(poly.label.anchor, (Point{120, 95}));
  // Ids keep incrementing past the restored set.
  GraphicsObject extra;
  extra.shape = ShapeKind::kPoint;
  extra.vertices = {{1, 1}};
  EXPECT_EQ(restored->Add(extra), 4u);
}

TEST(GraphicsImageTest, DeserializeRejectsTruncation) {
  GraphicsImage img = CityMap();
  const std::string bytes = img.Serialize();
  EXPECT_FALSE(
      GraphicsImage::Deserialize(std::string_view(bytes).substr(0, 8)).ok());
  // One object whose vertex count is far beyond what the bytes could
  // hold: a truncation, not an allocation sized by the forged count.
  std::string forged;
  PutVarint32(&forged, 200);  // Width.
  PutVarint32(&forged, 200);  // Height.
  PutVarint32(&forged, 2);    // Next id.
  PutVarint64(&forged, 1);    // Objects.
  PutVarint32(&forged, 1);    // Object id.
  forged.push_back(static_cast<char>(ShapeKind::kPolygon));
  PutVarint64(&forged, uint64_t{1} << 61);  // Vertices.
  EXPECT_TRUE(GraphicsImage::Deserialize(forged).status().IsCorruption());
}

}  // namespace
}  // namespace minos::image
