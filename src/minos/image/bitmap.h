#ifndef MINOS_IMAGE_BITMAP_H_
#define MINOS_IMAGE_BITMAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "minos/util/status.h"
#include "minos/util/statusor.h"

namespace minos::image {

/// Integer rectangle (x, y are the top-left corner; w, h >= 0).
struct Rect {
  int x = 0;
  int y = 0;
  int w = 0;
  int h = 0;

  bool Contains(int px, int py) const {
    return px >= x && px < x + w && py >= y && py < y + h;
  }
  bool Intersects(const Rect& o) const {
    return x < o.x + o.w && o.x < x + w && y < o.y + o.h && o.y < y + h;
  }
  /// Intersection (empty rect with w=h=0 when disjoint).
  Rect Intersect(const Rect& o) const;
  int area() const { return w * h; }
  friend bool operator==(const Rect&, const Rect&) = default;
};

/// 8-bit "ink" raster. Pixel value 0 means blank paper; larger values mean
/// darker ink. The ink convention makes the paper's page-compositing
/// primitives natural:
///   * transparency: new page ink is laid over the old page (max),
///   * overwrite: inked pixels replace, blank pixels leave intact.
class Bitmap {
 public:
  /// Creates a blank (all-zero) bitmap. Dimensions must be non-negative.
  Bitmap(int width, int height);
  Bitmap() : Bitmap(0, 0) {}

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  /// Pixel access; out-of-bounds reads return 0, writes are ignored.
  uint8_t At(int x, int y) const;
  void Set(int x, int y, uint8_t ink);

  /// Darkens a pixel (max with existing ink).
  void Blend(int x, int y, uint8_t ink);

  /// Fills the whole bitmap with `ink`.
  void Fill(uint8_t ink);

  /// Fills a rectangle (clipped).
  void FillRect(const Rect& r, uint8_t ink);

  /// Copies `src` so its top-left lands at (x, y), overwriting (clipped).
  void Blit(const Bitmap& src, int x, int y);

  /// Lays `src` ink over this bitmap (max per pixel) — the transparency
  /// compositing rule.
  void BlendOver(const Bitmap& src, int x, int y);

  /// Replaces pixels wherever `src` has ink, leaves the rest intact — the
  /// overwrite compositing rule (§2: "the bitmaps, lines, and shades of
  /// the overwrite image replace whatever existed in the previous page but
  /// they leave anything else intact").
  void OverwriteBy(const Bitmap& src, int x, int y);

  /// Extracts a (clipped) sub-rectangle as a new bitmap of size r.w x r.h;
  /// parts outside this bitmap read as blank.
  Bitmap SubBitmap(const Rect& r) const;

  /// Raw row-major pixels.
  const std::vector<uint8_t>& pixels() const { return pixels_; }

  /// Bytes a transfer of this bitmap costs (1 byte/pixel).
  uint64_t ByteSize() const {
    return static_cast<uint64_t>(width_) * static_cast<uint64_t>(height_);
  }

  /// Deterministic content digest (FNV-1a over dimensions and pixels).
  uint64_t Digest() const;

  /// Serialization for composition files and the archiver.
  std::string Serialize() const;
  static StatusOr<Bitmap> Deserialize(std::string_view bytes);

  friend bool operator==(const Bitmap& a, const Bitmap& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.pixels_ == b.pixels_;
  }

 private:
  /// Calls op(row, src_row, n) for each row where `src`, placed with its
  /// top-left at (x, y), overlaps this bitmap: `row` and `src_row` point
  /// at the first of the n overlapping pixels in each.
  template <typename RowOp>
  void ForEachOverlapRow(const Bitmap& src, int x, int y, RowOp op);

  int width_;
  int height_;
  std::vector<uint8_t> pixels_;
};

}  // namespace minos::image

#endif  // MINOS_IMAGE_BITMAP_H_
