#include "minos/server/page_plan.h"

#include <algorithm>
#include <set>

namespace minos::server {

namespace {

/// Length of the descriptor's part `name` (0 when it has none).
uint64_t LengthOf(const object::ObjectDescriptor& desc,
                  const std::string& name) {
  for (const object::PartPointer& p : desc.parts) {
    if (p.name == name) return p.length;
  }
  return 0;
}

std::string ImagePart(uint32_t image_index) {
  return "image:" + std::to_string(image_index);
}

}  // namespace

std::pair<uint64_t, uint64_t> ApportionStream(uint64_t total_len, int page,
                                              int page_count) {
  if (total_len == 0 || page < 1 || page > page_count) return {0, 0};
  const uint64_t chunk = total_len / static_cast<uint64_t>(page_count);
  // Fewer bytes than pages: zero-byte chunks would never deliver the
  // stream, so the whole of it rides with every page.
  if (chunk == 0) return {0, total_len};
  const uint64_t offset = static_cast<uint64_t>(page - 1) * chunk;
  const uint64_t length =
      page == page_count ? total_len - offset : chunk;
  return {offset, length};
}

PagePlan::PagePlan(const object::ObjectDescriptor& desc) {
  if (desc.driving_mode == object::DrivingMode::kAudio) {
    voice_len_ = LengthOf(desc, "voice");
  }
  uint32_t text_pages = 0;
  for (const object::VisualPageSpec& page : desc.pages) {
    text_pages = std::max(text_pages, page.text_page);
  }
  const uint64_t text_len = text_pages > 0 ? LengthOf(desc, "text") : 0;
  visual_.reserve(desc.pages.size());
  for (const object::VisualPageSpec& page : desc.pages) {
    std::vector<PageRange>& ranges = visual_.emplace_back();
    const auto [offset, length] =
        ApportionStream(text_len, static_cast<int>(page.text_page),
                        static_cast<int>(text_pages));
    if (length > 0) ranges.push_back(PageRange{"text", offset, length});
    for (const object::PlacedImage& placed : page.images) {
      std::string part = ImagePart(placed.image_index);
      const uint64_t image_len = LengthOf(desc, part);
      if (image_len > 0) {
        ranges.push_back(PageRange{std::move(part), 0, image_len});
      }
    }
  }
}

std::vector<PageRange> PagePlan::Ranges(bool audio, int page,
                                        int audio_pages) const {
  if (audio) {
    const auto [offset, length] =
        ApportionStream(voice_len_, page, audio_pages);
    if (length == 0) return {};
    return {PageRange{"voice", offset, length}};
  }
  if (page < 1 || page > page_count()) return {};
  return visual_[static_cast<size_t>(page - 1)];
}

uint64_t PagePlan::Bytes(bool audio, int page, int audio_pages) const {
  if (audio) return ApportionStream(voice_len_, page, audio_pages).second;
  if (page < 1 || page > page_count()) return 0;
  uint64_t total = 0;
  for (const PageRange& range : visual_[static_cast<size_t>(page - 1)]) {
    total += range.length;
  }
  return total;
}

uint64_t DeferredBytes(const object::ObjectDescriptor& desc) {
  std::set<uint32_t> page_images;
  bool pages_show_text = false;
  for (const object::VisualPageSpec& page : desc.pages) {
    if (page.text_page > 0) pages_show_text = true;
    for (const object::PlacedImage& placed : page.images) {
      page_images.insert(placed.image_index);
    }
  }
  uint64_t deferred = 0;
  for (uint32_t index : page_images) {
    deferred += LengthOf(desc, ImagePart(index));
  }
  if (pages_show_text) deferred += LengthOf(desc, "text");
  if (desc.driving_mode == object::DrivingMode::kAudio) {
    deferred += LengthOf(desc, "voice");
  }
  return deferred;
}

StatusOr<uint64_t> StageRanges(ObjectStore* store, storage::ObjectId id,
                               const std::vector<PageRange>& ranges,
                               const obs::TraceContext& ctx) {
  uint64_t bytes = 0;
  for (const PageRange& range : ranges) {
    MINOS_RETURN_IF_ERROR(store->StagePartRange(id, range.part, range.offset,
                                                range.length, ctx));
    bytes += range.length;
  }
  return bytes;
}

}  // namespace minos::server
