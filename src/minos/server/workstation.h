#ifndef MINOS_SERVER_WORKSTATION_H_
#define MINOS_SERVER_WORKSTATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "minos/core/presentation_manager.h"
#include "minos/query/result_cache.h"
#include "minos/server/object_store.h"
#include "minos/server/page_plan.h"
#include "minos/server/prefetch.h"
#include "minos/util/random.h"
#include "minos/util/statusor.h"

namespace minos::server {

/// Sequential miniature-browsing interface (§5): the user pages through
/// the miniature cards of qualifying objects and selects one to open.
///
/// Two construction modes: eager (a ready vector of cards — the classic
/// form) and lazy (object ids plus a card fetcher; cards materialize as
/// the cursor reaches them, which is what lets the prefetch pipeline
/// fetch the flanking cards in the background instead of the whole strip
/// up front).
class MiniatureBrowser {
 public:
  /// Fetches the card of `id` at strip position `position` (consulted
  /// on first need of each card in lazy mode).
  using CardFetcher =
      std::function<StatusOr<MiniatureCard>(storage::ObjectId id,
                                            int position)>;

  /// Cursor listener: fired after each Next/Previous lands (position is
  /// 0-based; jump is always false for single-step movement).
  using CursorListener =
      std::function<void(int position, int count, bool jump)>;

  /// Eager mode over ready cards.
  explicit MiniatureBrowser(std::vector<MiniatureCard> cards);

  /// Lazy mode over ids; `fetcher` must be callable for every id.
  MiniatureBrowser(std::vector<storage::ObjectId> ids, CardFetcher fetcher);

  bool empty() const { return slots_.empty(); }
  size_t size() const { return slots_.size(); }
  int position() const { return static_cast<int>(cursor_); }

  /// Attaches a message player: audio-mode cards then play their voice
  /// preview as they pass under the cursor ("some voice segments which
  /// are played as the miniature passes through the screen", §5).
  /// Both pointers are borrowed; `log` may be null.
  void AttachPlayer(core::MessagePlayer* player, core::EventLog* log) {
    player_ = player;
    log_ = log;
  }

  void SetCursorListener(CursorListener listener) {
    cursor_listener_ = std::move(listener);
  }

  /// The card under the cursor (fetched on first need in lazy mode).
  StatusOr<const MiniatureCard*> Current();

  /// Sequential movement; clamped at the ends (OutOfRange when already
  /// at the boundary). With a player attached, arriving on an audio-mode
  /// card plays its preview.
  Status Next();
  Status Previous();

  /// Selecting the current miniature yields its object id (known without
  /// fetching the card).
  StatusOr<storage::ObjectId> Select() const;

 private:
  struct Slot {
    storage::ObjectId id = 0;
    std::optional<MiniatureCard> card;
  };

  /// Materializes the card in `slot` (no-op in eager mode / when cached).
  StatusOr<const MiniatureCard*> Ensure(size_t slot);

  Status MoveTo(size_t target);
  void PlayPreviewIfAudio();

  std::vector<Slot> slots_;
  CardFetcher fetcher_;
  CursorListener cursor_listener_;
  size_t cursor_ = 0;
  core::MessagePlayer* player_ = nullptr;
  core::EventLog* log_ = nullptr;
};

/// A user workstation session: issues content queries to the object
/// server, browses the returned miniatures, and hands selected objects to
/// the presentation manager ("When the user selects the miniature of an
/// object the multimedia object presentation manager undertakes the
/// responsibility to present the information of the selected object",
/// §5). The user may interrupt presentation and return to the query or
/// sequential-browsing interfaces at any time.
///
/// With EnablePrefetch the workstation becomes the driver of the
/// asynchronous prefetch pipeline: objects fetch at skeleton granularity,
/// page content transfers on demand as the browsing cursor lands on each
/// page, and the PrefetchQueue keeps the next/previous pages, upcoming
/// audio segments, miniature neighbours and the object under the
/// miniature cursor staged in the background.
class Workstation {
 public:
  /// `server`, `screen` and `clock` are borrowed. `server` is any
  /// ObjectStore: one ObjectServer or a ShardRouter over several — the
  /// session logic is identical either way.
  Workstation(ObjectStore* server, render::Screen* screen, SimClock* clock);

  /// The server outlives the workstation by contract, so anything this
  /// session installed into it — the prefetch queue's backoff sleeper in
  /// particular — is uninstalled here; a retried fetch after this
  /// session ends must not reach back into the dead queue.
  ~Workstation();

  /// Turns on the prefetch pipeline (idempotent; the last options win).
  /// Installs the queue's backoff sleeper into the server, switches
  /// object resolution to skeleton granularity with demand paging, makes
  /// Query lazy, and subscribes to browsing-cursor events.
  void EnablePrefetch(PrefetchOptions options = {});

  /// The pipeline (null until EnablePrefetch).
  PrefetchQueue* prefetch() { return prefetch_.get(); }

  /// Evaluates a conjunctive content query at the server and returns the
  /// miniature browser over the qualifying objects (unranked, id order).
  /// Matches whose card the store could not build are dropped from the
  /// strip and noted degraded with the presentation manager.
  StatusOr<MiniatureBrowser> Query(const std::vector<std::string>& words);

  /// Ranked query: the miniature browser over the top `k` matches in
  /// relevance order, each card carrying its score. The ranked hit list
  /// is served from a workstation-side cache when the archive has not
  /// changed since it was computed (entries are stamped with the store's
  /// catalog version, so any Store or Append — and, for a sharded store,
  /// any shard lost or healed — invalidates them); the scatter/merge
  /// only re-runs on a miss. Unfetchable cards degrade the strip.
  StatusOr<MiniatureBrowser> QueryRanked(
      const std::vector<std::string>& words, size_t k);

  /// Opens the selected object in the presentation manager.
  Status Present(storage::ObjectId id);

  /// View retrieval with graceful degradation: fetches only the covering
  /// region of a stored image; when the server cannot deliver it (link
  /// down, persistent corruption), falls back to the miniature thumbnail
  /// cached during Query — a coarse surrogate the user already saw — and
  /// records the substitution with the presentation manager.
  StatusOr<image::Bitmap> FetchImageRegion(storage::ObjectId id,
                                           uint32_t image_index,
                                           const image::Rect& r);

  /// The presentation manager of this workstation.
  core::PresentationManager& presentation() { return presentation_; }

  /// Attaches the session-wide request tracer: installed into the store
  /// (and through it every shard and its link) and the presentation
  /// manager, so one browse action or query yields one connected span
  /// tree across the whole fabric. Borrowed; null detaches. The
  /// destructor detaches from the borrowed server automatically.
  void SetTracer(obs::Tracer* tracer);

  /// Attaches a task pool (borrowed): installed into the store (shard
  /// scatters, partitioned scoring) and the prefetch queue
  /// (affinity-grouped background staging keyed by the store's
  /// PrefetchAffinity). Null restores their defaults: the queue's and a
  /// router's own zero-worker pools, which run every epoch inline.
  /// Survives EnablePrefetch in either order.
  void SetTaskPool(runtime::TaskPool* pool);

 private:
  /// Per-object paging state captured when the resolver delivers a
  /// skeleton: what each page presents, and which pages are already at
  /// the terminal (delivered whole the first time the cursor lands on
  /// them; revisits are free).
  struct ObjectPlan {
    PagePlan pages;
    std::set<int> delivered;

    /// The ranges page `page` still needs: none once it is delivered.
    std::vector<PageRange> Undelivered(bool audio, int page,
                                       int page_count) const {
      if (delivered.count(page) > 0) return {};
      return pages.Ranges(audio, page, page_count);
    }
  };

  StatusOr<object::MultimediaObject> Resolve(storage::ObjectId id);
  void BuildPlan(storage::ObjectId id,
                 const object::ObjectDescriptor& desc);

  /// Stages the ranges and charges the link once for their total size.
  /// With a valid `ctx` the work records a "ws.transfer" span under it.
  Status StageAndTransfer(storage::ObjectId id,
                          const std::vector<PageRange>& ranges,
                          bool with_retries,
                          const obs::TraceContext& ctx = {});

  /// Queues a speculative staging transfer for `page` of `id`. The
  /// transfer, whenever the pipeline issues it, attributes to `ctx` —
  /// the page turn that scheduled the speculation.
  void ScheduleWantPage(PrefetchKind kind, storage::ObjectId id, int page,
                        int page_count, int distance,
                        const obs::TraceContext& ctx = {});

  /// Ambient context of the innermost open session span (invalid when
  /// untraced) — the bridge into the explicitly-propagated fabric.
  obs::TraceContext CurCtx() const {
    return tracer_ != nullptr ? tracer_->current_context()
                              : obs::TraceContext{};
  }

  /// The strip builder both queries hand their hits to: the strip over
  /// `hits` in order, each card carrying its hit's score and leaving its
  /// thumb in the thumb cache. With prefetch on it is the LazyStrip;
  /// otherwise one store gather (traced under `ctx`) builds every card
  /// up front, and each hit whose card the store dropped is noted
  /// degraded.
  MiniatureBrowser Strip(const std::vector<query::ScoredHit>& hits,
                         const obs::TraceContext& ctx);

  /// The prefetching strip over `ids` (the ids of `hits`): each card
  /// claims its staged fetch first, and the cursor steers the pipeline
  /// at the flanks. Cancels the previous strip's staged cards.
  MiniatureBrowser LazyStrip(const std::vector<storage::ObjectId>& ids,
                             std::vector<query::ScoredHit> hits);

  /// Cursor-event handlers (prefetch enabled only).
  void OnBrowse(const core::PresentationManager::BrowseEvent& event);
  void OnMiniatureCursor(const std::vector<storage::ObjectId>& ids,
                         int position, bool jump);

  ObjectStore* server_;
  SimClock* clock_;
  obs::Tracer* tracer_ = nullptr;  ///< Borrowed; may be null.
  runtime::TaskPool* pool_ = nullptr;  ///< Borrowed; may be null.
  core::PresentationManager presentation_;
  std::unique_ptr<PrefetchQueue> prefetch_;
  PrefetchOptions prefetch_options_;
  std::map<storage::ObjectId, ObjectPlan> plans_;
  Random page_rng_{0x9A6EBEEF};  ///< Jitter for demand-page retries.
  /// Miniature thumbs by object id, kept from the last Query: the
  /// degraded fallback for failed region fetches.
  std::map<storage::ObjectId, image::Bitmap> thumb_cache_;
  /// Ranked hit lists by canonical query key, catalog-version stamped.
  query::QueryResultCache ranked_cache_;
};

}  // namespace minos::server

#endif  // MINOS_SERVER_WORKSTATION_H_
