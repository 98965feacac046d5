#include "minos/image/bitmap.h"

#include <algorithm>

#include "minos/util/coding.h"
#include "minos/util/string_util.h"

namespace minos::image {

Rect Rect::Intersect(const Rect& o) const {
  const int x0 = std::max(x, o.x);
  const int y0 = std::max(y, o.y);
  const int x1 = std::min(x + w, o.x + o.w);
  const int y1 = std::min(y + h, o.y + o.h);
  if (x1 <= x0 || y1 <= y0) return Rect{};
  return Rect{x0, y0, x1 - x0, y1 - y0};
}

Bitmap::Bitmap(int width, int height)
    : width_(std::max(width, 0)),
      height_(std::max(height, 0)),
      pixels_(static_cast<size_t>(width_) * static_cast<size_t>(height_),
              0) {}

uint8_t Bitmap::At(int x, int y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return 0;
  return pixels_[static_cast<size_t>(y) * width_ + x];
}

void Bitmap::Set(int x, int y, uint8_t ink) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return;
  pixels_[static_cast<size_t>(y) * width_ + x] = ink;
}

void Bitmap::Blend(int x, int y, uint8_t ink) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return;
  uint8_t& p = pixels_[static_cast<size_t>(y) * width_ + x];
  p = std::max(p, ink);
}

void Bitmap::Fill(uint8_t ink) {
  std::fill(pixels_.begin(), pixels_.end(), ink);
}

void Bitmap::FillRect(const Rect& r, uint8_t ink) {
  const Rect c = r.Intersect(Rect{0, 0, width_, height_});
  // Clipped once, so each row is one contiguous fill. A byte store may
  // alias any member, so index through hoisted locals, not width_.
  uint8_t* const pixels = pixels_.data();
  const size_t stride = static_cast<size_t>(width_);
  for (int y = c.y; y < c.y + c.h; ++y) {
    std::fill_n(pixels + y * stride + c.x, c.w, ink);
  }
}

template <typename RowOp>
void Bitmap::ForEachOverlapRow(const Bitmap& src, int x, int y, RowOp op) {
  const Rect placed{x, y, src.width_, src.height_};
  const Rect c = placed.Intersect(Rect{0, 0, width_, height_});
  // Clipped once, so each row is one contiguous run; indexed through
  // hoisted locals as in FillRect.
  uint8_t* const pixels = pixels_.data();
  const uint8_t* const src_pixels = src.pixels_.data();
  const size_t stride = static_cast<size_t>(width_);
  const size_t src_stride = static_cast<size_t>(src.width_);
  const size_t n = static_cast<size_t>(c.w);
  for (int row = c.y; row < c.y + c.h; ++row) {
    const uint8_t* from = src_pixels + (row - y) * src_stride + (c.x - x);
    op(pixels + row * stride + c.x, from, n);
  }
}

void Bitmap::Blit(const Bitmap& src, int x, int y) {
  ForEachOverlapRow(src, x, y, [](uint8_t* d, const uint8_t* s, size_t n) {
    std::copy_n(s, n, d);
  });
}

void Bitmap::BlendOver(const Bitmap& src, int x, int y) {
  ForEachOverlapRow(src, x, y, [](uint8_t* d, const uint8_t* s, size_t n) {
    for (size_t i = 0; i < n; ++i) d[i] = std::max(d[i], s[i]);
  });
}

void Bitmap::OverwriteBy(const Bitmap& src, int x, int y) {
  ForEachOverlapRow(src, x, y, [](uint8_t* d, const uint8_t* s, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (s[i] > 0) d[i] = s[i];
    }
  });
}

Bitmap Bitmap::SubBitmap(const Rect& r) const {
  Bitmap out(r.w, r.h);
  const Rect c = r.Intersect(Rect{0, 0, width_, height_});
  const size_t stride = static_cast<size_t>(width_);
  const size_t out_stride = static_cast<size_t>(out.width_);
  for (int y = c.y; y < c.y + c.h; ++y) {
    const uint8_t* from = pixels_.data() + y * stride + c.x;
    uint8_t* to = out.pixels_.data() + (y - r.y) * out_stride + (c.x - r.x);
    std::copy_n(from, c.w, to);
  }
  return out;
}

uint64_t Bitmap::Digest() const {
  std::string header;
  PutFixed32(&header, static_cast<uint32_t>(width_));
  PutFixed32(&header, static_cast<uint32_t>(height_));
  uint64_t h = Fnv1a64(header);
  // Continue the FNV stream over the pixel data.
  for (uint8_t p : pixels_) {
    h ^= p;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Bitmap::Serialize() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(width_));
  PutVarint32(&out, static_cast<uint32_t>(height_));
  out.append(reinterpret_cast<const char*>(pixels_.data()), pixels_.size());
  return out;
}

StatusOr<Bitmap> Bitmap::Deserialize(std::string_view bytes) {
  Decoder dec(bytes);
  uint32_t w = 0, h = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&w));
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&h));
  const uint64_t need = static_cast<uint64_t>(w) * h;
  if (dec.remaining() < need) {
    return Status::Corruption("bitmap pixel data truncated");
  }
  std::string pixels;
  MINOS_RETURN_IF_ERROR(dec.GetRaw(static_cast<size_t>(need), &pixels));
  Bitmap bm(static_cast<int>(w), static_cast<int>(h));
  for (size_t i = 0; i < pixels.size(); ++i) {
    bm.pixels_[i] = static_cast<uint8_t>(pixels[i]);
  }
  return bm;
}

}  // namespace minos::image
