#ifndef MINOS_SERVER_PAGE_PLAN_H_
#define MINOS_SERVER_PAGE_PLAN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "minos/obs/trace.h"
#include "minos/object/descriptor.h"
#include "minos/server/object_store.h"
#include "minos/util/statusor.h"

namespace minos::server {

/// Splits an even apportionment of `total_len` bytes over `page_count`
/// pages and returns the {offset, length} slice that page `page`
/// (1-based) owns. The last page absorbs the rounding remainder; a
/// stream smaller than the page count rides whole with every page
/// (offset 0, full length), so every page delivered carries all of it.
/// {0, 0} when the stream is empty or `page` is out of range.
std::pair<uint64_t, uint64_t> ApportionStream(uint64_t total_len, int page,
                                              int page_count);

/// One contiguous byte range of a part that one page presents.
struct PageRange {
  std::string part;
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Which bytes each page of an object presents, read off the object's
/// descriptor alone: "The presentation manager uses the descriptor in
/// order to navigate through various parts of an object during
/// browsing" (§4), and the part pointers carry every length. A visual
/// page presents its share of the `text` stream (apportioned over the
/// formatted text pages) plus the image parts placed on it; an audio
/// page presents its share of an audio-mode object's `voice` stream,
/// apportioned over the pages the audio pager built. The page bytes of
/// one complete read-through are exactly what a skeleton fetch defers
/// (DeferredBytes) whenever every text page is shown once and every
/// image placed once.
class PagePlan {
 public:
  explicit PagePlan(const object::ObjectDescriptor& desc);

  /// Visual pages the descriptor lays out.
  int page_count() const { return static_cast<int>(visual_.size()); }

  /// The ranges page `page` (1-based) presents, in delivery order: the
  /// voice share over `audio_pages` pages when `audio`, else the visual
  /// page's text share and then its images (`audio_pages` unused).
  /// Empty out of range and for pages that present no deferred bytes.
  std::vector<PageRange> Ranges(bool audio, int page, int audio_pages) const;

  /// Total length of Ranges(audio, page, audio_pages).
  uint64_t Bytes(bool audio, int page, int audio_pages) const;

 private:
  uint64_t voice_len_ = 0;  ///< Audio-mode objects only.
  std::vector<std::vector<PageRange>> visual_;  ///< [page - 1] -> ranges.
};

/// Bytes a skeleton fetch defers to page-granular transfers: the image
/// parts placed on visual pages, the text stream when a page shows text,
/// and the voice stream of an audio-mode object. Zero for objects with
/// no pageable content.
uint64_t DeferredBytes(const object::ObjectDescriptor& desc);

/// Stages `ranges` of object `id` through the store's archiver without
/// charging any link, and returns their byte total: the caller moves
/// that many bytes over its link its own way.
StatusOr<uint64_t> StageRanges(ObjectStore* store, storage::ObjectId id,
                               const std::vector<PageRange>& ranges,
                               const obs::TraceContext& ctx = {});

}  // namespace minos::server

#endif  // MINOS_SERVER_PAGE_PLAN_H_
