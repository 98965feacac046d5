#include <gtest/gtest.h>

#include "minos/image/image.h"
#include "minos/image/miniature.h"
#include "minos/image/view.h"

namespace minos::image {
namespace {

Image BigBitmap() {
  Bitmap bm(400, 300);
  bm.FillRect(Rect{100, 100, 50, 50}, 255);  // A landmark square.
  return Image::FromBitmap(std::move(bm));
}

Image LabeledMap() {
  GraphicsImage g(400, 300);
  GraphicsObject a;
  a.shape = ShapeKind::kCircle;
  a.vertices = {{50, 50}};
  a.radius = 8;
  a.label = {LabelKind::kVoice, "first landmark", {50, 40}};
  g.Add(a);
  GraphicsObject b;
  b.shape = ShapeKind::kCircle;
  b.vertices = {{350, 250}};
  b.radius = 8;
  b.label = {LabelKind::kVoice, "second landmark", {350, 240}};
  g.Add(b);
  return Image::FromGraphics(std::move(g));
}

TEST(ImageTest, BitmapAndGraphicsDimensions) {
  EXPECT_EQ(BigBitmap().width(), 400);
  EXPECT_EQ(LabeledMap().height(), 300);
  EXPECT_TRUE(BigBitmap().is_bitmap());
  EXPECT_TRUE(LabeledMap().is_graphics());
}

TEST(ImageTest, GraphicsFacilitiesUnsupportedOnBitmaps) {
  const Image img = BigBitmap();
  EXPECT_TRUE(img.graphics().status().IsUnsupported());
  EXPECT_TRUE(img.ObjectAt(0, 0).status().IsUnsupported());
  EXPECT_TRUE(img.MatchLabels("x").empty());
}

TEST(ImageTest, RegionByteSizeSmallerThanFull) {
  const Image img = BigBitmap();
  EXPECT_EQ(img.ByteSize(), 400u * 300u);
  EXPECT_EQ(img.RegionByteSize(Rect{0, 0, 100, 100}), 100u * 100u);
  EXPECT_LT(img.RegionByteSize(Rect{0, 0, 100, 100}), img.ByteSize());
}

TEST(ImageTest, SerializeRoundTripBothKinds) {
  auto bm = Image::Deserialize(BigBitmap().Serialize());
  ASSERT_TRUE(bm.ok());
  EXPECT_TRUE(bm->is_bitmap());
  EXPECT_EQ(bm->width(), 400);
  auto g = Image::Deserialize(LabeledMap().Serialize());
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->is_graphics());
}

TEST(ImageTest, RenderRegionMatchesFullRenderCrop) {
  const Image img = BigBitmap();
  const Bitmap full = img.Render();
  const Rect r{90, 90, 80, 80};
  const Bitmap region = img.RenderRegion(r);
  EXPECT_EQ(region, full.SubBitmap(r));
}

TEST(MiniatureTest, ScaleReducesSize) {
  auto mini = Miniature::Build(BigBitmap(), 4);
  ASSERT_TRUE(mini.ok());
  EXPECT_EQ(mini->raster().width(), 100);
  EXPECT_EQ(mini->raster().height(), 75);
  EXPECT_LT(mini->ByteSize(), BigBitmap().ByteSize() / 10);
}

TEST(MiniatureTest, RejectsBadArguments) {
  EXPECT_TRUE(Miniature::Build(BigBitmap(), 0).status().IsInvalidArgument());
  EXPECT_TRUE(Miniature::Build(Image(), 2).status().IsInvalidArgument());
}

TEST(MiniatureTest, LandmarkVisibleInMiniature) {
  auto mini = Miniature::Build(BigBitmap(), 4);
  ASSERT_TRUE(mini.ok());
  // The 50x50 landmark at (100,100) maps to (25,25)..(37,37).
  EXPECT_GT(mini->raster().At(30, 30), 100);
  EXPECT_EQ(mini->raster().At(5, 5), 0);
}

TEST(MiniatureTest, CoordinateMappingRoundTrips) {
  auto mini = Miniature::Build(BigBitmap(), 4);
  ASSERT_TRUE(mini.ok());
  const Rect on_mini{10, 10, 20, 15};
  const Rect full = mini->ToFullImage(on_mini);
  EXPECT_EQ(full, (Rect{40, 40, 80, 60}));
  EXPECT_EQ(mini->ToMiniature(full), on_mini);
}

TEST(MiniatureTest, GraphicsSketchShowsObjects) {
  auto mini = Miniature::Build(LabeledMap(), 4);
  ASSERT_TRUE(mini.ok());
  int inked = 0;
  for (int y = 0; y < mini->raster().height(); ++y) {
    for (int x = 0; x < mini->raster().width(); ++x) {
      if (mini->raster().At(x, y) > 0) ++inked;
    }
  }
  EXPECT_GT(inked, 10);
}

TEST(ViewTest, ClampsIntoImage) {
  const Image img = BigBitmap();
  View view(&img, Rect{-50, -50, 100, 100});
  EXPECT_EQ(view.rect(), (Rect{0, 0, 100, 100}));
  view.JumpTo(1000, 1000);
  EXPECT_EQ(view.rect(), (Rect{300, 200, 100, 100}));
}

TEST(ViewTest, MoveByDelta) {
  const Image img = BigBitmap();
  View view(&img, Rect{0, 0, 100, 100});
  view.Move(50, 30);
  EXPECT_EQ(view.rect(), (Rect{50, 30, 100, 100}));
  view.Move(-500, -500);
  EXPECT_EQ(view.rect(), (Rect{0, 0, 100, 100}));
}

TEST(ViewTest, ResizeAnchorsAtCenter) {
  const Image img = BigBitmap();
  View view(&img, Rect{100, 100, 100, 100});
  view.Resize(20, 20);
  EXPECT_EQ(view.rect(), (Rect{90, 90, 120, 120}));
  view.Resize(-40, -40);
  EXPECT_EQ(view.rect().w, 80);
}

TEST(ViewTest, RetrieveChargesBytes) {
  const Image img = BigBitmap();
  View view(&img, Rect{100, 100, 50, 50});
  EXPECT_EQ(view.bytes_transferred(), 0u);
  const Bitmap data = view.Retrieve();
  EXPECT_EQ(data.width(), 50);
  EXPECT_EQ(view.bytes_transferred(), 2500u);
  view.Retrieve();
  EXPECT_EQ(view.bytes_transferred(), 5000u);
}

TEST(ViewTest, RetrieveShowsLandmark) {
  const Image img = BigBitmap();
  View view(&img, Rect{100, 100, 50, 50});
  const Bitmap data = view.Retrieve();
  EXPECT_EQ(data.At(10, 10), 255);
}

TEST(ViewTest, VoiceLabelsPlayedOnEncounter) {
  const Image img = LabeledMap();
  View view(&img, Rect{200, 100, 100, 100});
  view.set_voice_option(true);
  // Jump onto the second landmark.
  auto labels = view.JumpTo(300, 200);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].label.text, "second landmark");
  // Moving within it does not replay.
  labels = view.Move(5, 5);
  EXPECT_TRUE(labels.empty());
}

TEST(ViewTest, VoiceOptionOffSilencesLabels) {
  const Image img = LabeledMap();
  View view(&img, Rect{200, 100, 100, 100});
  EXPECT_TRUE(view.JumpTo(300, 200).empty());
}

TEST(ViewTest, GrowingViewEncountersNewLabels) {
  const Image img = LabeledMap();
  View view(&img, Rect{150, 100, 50, 50});
  view.set_voice_option(true);
  auto labels = view.Resize(500, 400);  // Now covers everything.
  EXPECT_EQ(labels.size(), 2u);
}

}  // namespace
}  // namespace minos::image
