#include "minos/image/bitmap.h"

#include <gtest/gtest.h>

#include "minos/util/random.h"

namespace minos::image {
namespace {

TEST(RectTest, ContainsAndIntersects) {
  Rect r{10, 10, 5, 5};
  EXPECT_TRUE(r.Contains(10, 10));
  EXPECT_TRUE(r.Contains(14, 14));
  EXPECT_FALSE(r.Contains(15, 15));
  EXPECT_TRUE(r.Intersects(Rect{14, 14, 10, 10}));
  EXPECT_FALSE(r.Intersects(Rect{15, 10, 5, 5}));
  EXPECT_EQ(r.area(), 25);
}

TEST(RectTest, Intersection) {
  Rect r{0, 0, 10, 10};
  EXPECT_EQ(r.Intersect(Rect{5, 5, 10, 10}), (Rect{5, 5, 5, 5}));
  EXPECT_EQ(r.Intersect(Rect{20, 20, 5, 5}), (Rect{}));
  EXPECT_EQ(r.Intersect(r), r);
}

TEST(BitmapTest, StartsBlank) {
  Bitmap bm(4, 3);
  EXPECT_EQ(bm.width(), 4);
  EXPECT_EQ(bm.height(), 3);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 4; ++x) EXPECT_EQ(bm.At(x, y), 0);
  }
}

TEST(BitmapTest, OutOfBoundsReadsZeroWritesIgnored) {
  Bitmap bm(2, 2);
  EXPECT_EQ(bm.At(-1, 0), 0);
  EXPECT_EQ(bm.At(5, 5), 0);
  bm.Set(-1, 0, 255);  // No crash, no effect.
  bm.Set(2, 0, 255);
  EXPECT_EQ(bm.At(0, 0), 0);
}

TEST(BitmapTest, BlendTakesMax) {
  Bitmap bm(2, 2);
  bm.Set(0, 0, 100);
  bm.Blend(0, 0, 50);
  EXPECT_EQ(bm.At(0, 0), 100);
  bm.Blend(0, 0, 200);
  EXPECT_EQ(bm.At(0, 0), 200);
}

TEST(BitmapTest, FillRectClips) {
  Bitmap bm(4, 4);
  bm.FillRect(Rect{2, 2, 10, 10}, 7);
  EXPECT_EQ(bm.At(1, 1), 0);
  EXPECT_EQ(bm.At(2, 2), 7);
  EXPECT_EQ(bm.At(3, 3), 7);

  // Clipped, negative-origin, negative-size, empty and fully outside
  // rects all fill exactly what a per-pixel Set (which clips) fills.
  const Rect rects[] = {{2, 2, 10, 10}, {-3, -2, 5, 4}, {-5, 1, 30, 2},
                        {6, 0, 4, 5},   {0, 0, 7, 5},   {3, 4, 2, 2},
                        {0, 0, 0, 3},   {1, 1, 3, 0},   {1, 1, -2, 3},
                        {9, 9, 2, 2},   {-4, -4, 3, 3}, {0, 4, 7, 1}};
  for (const Rect& r : rects) {
    Bitmap got(7, 5);
    got.Fill(1);
    Bitmap want = got;
    got.FillRect(r, 9);
    for (int y = r.y; y < r.y + r.h; ++y) {
      for (int x = r.x; x < r.x + r.w; ++x) want.Set(x, y, 9);
    }
    EXPECT_TRUE(got == want)
        << "rect " << r.x << "," << r.y << " " << r.w << "x" << r.h;
  }
}

TEST(BitmapTest, BlitOverwritesIncludingBlanks) {
  Bitmap dst(4, 4);
  dst.Fill(9);
  Bitmap src(2, 2);  // All zeros.
  dst.Blit(src, 1, 1);
  EXPECT_EQ(dst.At(1, 1), 0);  // Blank copied over ink.
  EXPECT_EQ(dst.At(0, 0), 9);
}

TEST(BitmapTest, BlendOverIsTransparencyRule) {
  Bitmap dst(2, 2);
  dst.Set(0, 0, 100);
  Bitmap src(2, 2);
  src.Set(0, 0, 50);
  src.Set(1, 1, 200);
  dst.BlendOver(src, 0, 0);
  EXPECT_EQ(dst.At(0, 0), 100);  // Existing darker ink kept.
  EXPECT_EQ(dst.At(1, 1), 200);  // New ink laid down.
}

TEST(BitmapTest, OverwriteByIsOverwriteRule) {
  Bitmap dst(2, 2);
  dst.Set(0, 0, 100);
  dst.Set(1, 0, 80);
  Bitmap src(2, 2);
  src.Set(0, 0, 30);  // Inked: replaces (even if lighter).
  // (1,0) blank in src: leaves dst intact.
  dst.OverwriteBy(src, 0, 0);
  EXPECT_EQ(dst.At(0, 0), 30);
  EXPECT_EQ(dst.At(1, 0), 80);
}

TEST(BitmapTest, SubBitmapClipsAndPads) {
  Bitmap bm(4, 4);
  bm.Set(3, 3, 77);
  Bitmap sub = bm.SubBitmap(Rect{2, 2, 4, 4});
  EXPECT_EQ(sub.width(), 4);
  EXPECT_EQ(sub.height(), 4);
  EXPECT_EQ(sub.At(1, 1), 77);
  EXPECT_EQ(sub.At(3, 3), 0);  // Outside the source: blank.
}

TEST(BitmapTest, DigestSensitiveToContentAndShape) {
  Bitmap a(4, 4), b(4, 4), c(2, 8);
  EXPECT_EQ(a.Digest(), b.Digest());
  b.Set(1, 1, 1);
  EXPECT_NE(a.Digest(), b.Digest());
  EXPECT_NE(a.Digest(), c.Digest());  // Same pixel count, different shape.
}

TEST(BitmapTest, SerializeRoundTrip) {
  Bitmap bm(3, 2);
  bm.Set(0, 0, 1);
  bm.Set(2, 1, 255);
  auto restored = Bitmap::Deserialize(bm.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, bm);
}

TEST(BitmapTest, DeserializeRejectsTruncation) {
  Bitmap bm(8, 8);
  const std::string bytes = bm.Serialize();
  EXPECT_TRUE(Bitmap::Deserialize(std::string_view(bytes).substr(0, 10))
                  .status()
                  .IsCorruption());
}

TEST(BitmapTest, ByteSize) {
  Bitmap bm(10, 20);
  EXPECT_EQ(bm.ByteSize(), 200u);
}

TEST(BitmapTest, EmptyBitmap) {
  Bitmap bm;
  EXPECT_TRUE(bm.empty());
  EXPECT_EQ(bm.ByteSize(), 0u);
  auto restored = Bitmap::Deserialize(bm.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
}

/// A bitmap of 0-12 by 0-12 pixels with random ink, about a third of it
/// blank.
Bitmap RandomBitmap(Random* rng) {
  const int w = static_cast<int>(rng->Uniform(13));
  const int h = static_cast<int>(rng->Uniform(13));
  Bitmap bm(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!rng->Bernoulli(0.33)) {
        bm.Set(x, y, static_cast<uint8_t>(1 + rng->Uniform(255)));
      }
    }
  }
  return bm;
}

// Per-pixel references, one bounds-checked Set/Blend/At per pixel.
void BlitReference(Bitmap* dst, const Bitmap& src, int x, int y) {
  for (int sy = 0; sy < src.height(); ++sy) {
    for (int sx = 0; sx < src.width(); ++sx) {
      dst->Set(x + sx, y + sy, src.At(sx, sy));
    }
  }
}

void BlendOverReference(Bitmap* dst, const Bitmap& src, int x, int y) {
  for (int sy = 0; sy < src.height(); ++sy) {
    for (int sx = 0; sx < src.width(); ++sx) {
      dst->Blend(x + sx, y + sy, src.At(sx, sy));
    }
  }
}

void OverwriteByReference(Bitmap* dst, const Bitmap& src, int x, int y) {
  for (int sy = 0; sy < src.height(); ++sy) {
    for (int sx = 0; sx < src.width(); ++sx) {
      if (src.At(sx, sy) > 0) dst->Set(x + sx, y + sy, src.At(sx, sy));
    }
  }
}

Bitmap SubBitmapReference(const Bitmap& bm, const Rect& r) {
  Bitmap out(r.w, r.h);
  for (int y = 0; y < r.h; ++y) {
    for (int x = 0; x < r.w; ++x) out.Set(x, y, bm.At(r.x + x, r.y + y));
  }
  return out;
}

// Sources placed partly or wholly outside the target, at negative
// offsets, and empty sources and targets: the row-walking operations
// must match the per-pixel references exactly.
TEST(BitmapTest, CompositingMatchesPerPixelReferences) {
  Random rng(1986);
  for (int c = 0; c < 2000; ++c) {
    const Bitmap target = RandomBitmap(&rng);
    const Bitmap src = RandomBitmap(&rng);
    const int x = static_cast<int>(rng.UniformRange(-16, 16));
    const int y = static_cast<int>(rng.UniformRange(-16, 16));
    SCOPED_TRACE(testing::Message() << "case " << c << ": " << x << ',' << y);

    Bitmap got = target;
    Bitmap want = target;
    got.Blit(src, x, y);
    BlitReference(&want, src, x, y);
    ASSERT_TRUE(got == want) << "Blit";

    got = target;
    want = target;
    got.BlendOver(src, x, y);
    BlendOverReference(&want, src, x, y);
    ASSERT_TRUE(got == want) << "BlendOver";

    got = target;
    want = target;
    got.OverwriteBy(src, x, y);
    OverwriteByReference(&want, src, x, y);
    ASSERT_TRUE(got == want) << "OverwriteBy";

    const int w = static_cast<int>(rng.UniformRange(-2, 14));
    const int h = static_cast<int>(rng.UniformRange(-2, 14));
    const Rect r{x, y, w, h};
    ASSERT_TRUE(target.SubBitmap(r) == SubBitmapReference(target, r))
        << "SubBitmap " << w << "x" << h;
  }
}

}  // namespace
}  // namespace minos::image
