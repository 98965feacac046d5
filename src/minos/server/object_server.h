#ifndef MINOS_SERVER_OBJECT_SERVER_H_
#define MINOS_SERVER_OBJECT_SERVER_H_

#include <map>
#include <string>
#include <vector>

#include "minos/core/page_compositor.h"
#include "minos/image/miniature.h"
#include "minos/object/multimedia_object.h"
#include "minos/query/scored_index.h"
#include "minos/server/fault.h"
#include "minos/server/link.h"
#include "minos/server/object_store.h"
#include "minos/server/repair.h"
#include "minos/storage/archiver.h"
#include "minos/storage/request_scheduler.h"
#include "minos/storage/version_store.h"
#include "minos/util/random.h"
#include "minos/util/statusor.h"

namespace minos::server {

/// The multimedia object server subsystem (§5): optical-disk based
/// archived-object store with access methods, caching, version control,
/// and content queries evaluated server-side. Retrievals go through the
/// link cost model so workstation-side experiments see realistic transfer
/// economics. One ObjectServer is the classic single-machine topology;
/// ShardRouter composes several into a sharded archive.
class ObjectServer : public ObjectStore {
 public:
  /// All pointers borrowed. `link` may be null (no transfer charging).
  ObjectServer(storage::Archiver* archiver, storage::VersionStore* versions,
               SimClock* clock, Link* link);

  /// Fault tolerance -------------------------------------------------------

  /// Attaches the injector that corrupts payloads in flight (borrowed;
  /// null detaches). Transport drops/timeouts belong to the Link's own
  /// injector; this one models wire corruption of delivered bytes.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Replaces the retry schedule used by every Fetch* method. The
  /// default is RetryPolicy::Default(); RetryPolicy::None() restores the
  /// fail-on-first-fault behaviour of the pre-fault-model server.
  void SetRetryPolicy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const override { return retry_policy_; }

  /// Installs the sleeper every Fetch* retry spends its backoff windows
  /// in (null restores plain clock advances). The prefetch pipeline
  /// installs one that pumps queued background transfers during the
  /// window, so retries yield the link to speculative work instead of
  /// dead-sleeping the session.
  void SetBackoffSleeper(BackoffSleeper sleeper) override {
    backoff_sleeper_ = std::move(sleeper);
  }

  /// Installs the disk-arm scheduler staging reads are charged through
  /// (borrowed; null restores plain archiver charging). With a scheduler
  /// installed, each StagePartRange books its device work as an IoRequest
  /// in the lane the live Link scope implies — kBackground while a
  /// prefetch BackgroundScope is active, kForeground otherwise — so
  /// foreground page deliveries preempt speculative staging at the arm.
  void SetScheduler(storage::RequestScheduler* scheduler) {
    scheduler_ = scheduler;
  }

  /// Attaches the request tracer (borrowed; null detaches), forwarding
  /// it to the link so transfers record under this server's spans.
  void SetTracer(obs::Tracer* tracer) override {
    tracer_ = tracer;
    if (link_ != nullptr) link_->SetTracer(tracer);
  }

  /// Attaches a task pool (borrowed; null detaches) used to partition
  /// BM25 candidate accumulation across cores. Results and query.*
  /// counters are bit-identical to serial scoring.
  void SetTaskPool(runtime::TaskPool* pool) override { pool_ = pool; }

  /// Ingest ---------------------------------------------------------------

  /// Archives an object (must be in archived state) and indexes its
  /// content for boolean and ranked queries. Re-storing an id replaces
  /// its indexed content. Returns the archive address.
  StatusOr<storage::ArchiveAddress> Store(
      const object::MultimediaObject& obj) override;

  /// Content appended to an archived object: characters appended to the
  /// text part's flat contents and/or audio appended to the voice part
  /// (samples plus word alignments, with offsets relative to the
  /// appended content — the rebuild shifts them into place). Either
  /// medium may be empty; both empty is InvalidArgument.
  struct AppendParts {
    std::string text;
    voice::VoiceTrack voice;
  };

  /// One successful Append: the new archive image, the version it
  /// cataloged as, and the stats-only index delta a catalog-wide
  /// statistics index (the ShardRouter's) applies instead of a rebuild.
  struct AppendResult {
    storage::ArchiveAddress address;
    uint32_t version = 0;
    query::IndexDelta delta;
  };

  /// The work one replicated Append shares across its replicas, alive
  /// for a single call. The first replica whose read of its prior
  /// hashes to its cataloged checksum leaves its successor image here,
  /// with that prior's catalog identity. A later replica archives the
  /// image without decoding or rebuilding only when it holds the same
  /// cataloged image: equal (version, content checksum), and its own
  /// read bytes of equal size hashing to its own checksum — the
  /// identity anti-entropy's truth vote relies on. Otherwise it builds
  /// its own successor.
  struct SharedSuccessor {
    uint32_t prior_version = 0;
    uint32_t prior_crc = 0;
    uint64_t prior_size = 0;
    uint32_t crc = 0;   ///< CRC-32 of `image`.
    std::string image;  ///< Empty until a replica fills the record.
  };

  /// Appends content to an archived object. Archived objects are
  /// immutable (§2), so the append builds the successor version — the
  /// prior parts plus the new content — archives it whole, and records
  /// it in the version lineage; FetchVersion still serves the old one.
  ///
  /// Ordering is write-first: the device write happens before any
  /// catalog, index, or version mutation, so a write fault rolls back
  /// by construction — a failed Append leaves the content index (no
  /// phantom df entries), the catalog, and catalog_version() exactly as
  /// they were. After a successful write the index updates
  /// *incrementally*: only the appended words are walked, never the
  /// whole object, and the returned delta carries the df/length changes
  /// global statistics need. Bumps catalog_version() so workstation
  /// ranked-result caches invalidate. Replicas of one Append pass the
  /// same `shared` record (see SharedSuccessor); the archived bytes are
  /// the same with or without it.
  StatusOr<AppendResult> Append(storage::ObjectId id,
                                const AppendParts& parts,
                                SharedSuccessor* shared = nullptr);

  /// The recognizer accuracy profile voice postings are confidence-
  /// weighted with at Store time (§2: recognition happens at insertion).
  /// The router weights its catalog-wide statistics with the same one.
  const voice::RecognizerParams& recognizer_profile() const {
    return recognizer_profile_;
  }

  /// Anti-entropy ----------------------------------------------------------

  /// Summarizes the catalog for the repair protocol: one (id, version,
  /// content checksum) entry per object, ascending by id. The checksum
  /// is the CRC-32 cached at ingest over the serialized object bytes,
  /// so replicas of one version agree byte-for-byte. With `scrub`, the
  /// bytes are re-read from the archive (device time charged) and the
  /// checksum recomputed: silent media rot then shows up as replica
  /// divergence instead of waiting for a fetch to trip on it.
  CatalogDigest BuildCatalogDigest(bool scrub = false) const;

  /// Replica ingest — the receiving half of a repair transfer. `bytes`
  /// is validated strictly first (every part checksum must verify; a
  /// malformed replica is rejected with Corruption, never archived),
  /// then archived, cataloged under `version` and content-indexed
  /// exactly like Store. Returns false without mutating anything when
  /// the catalog already holds `version` with the same checksum, and
  /// never regresses a newer local copy. The caller owns transfer
  /// accounting: repair charges the link itself, in the background
  /// lane.
  StatusOr<bool> AcceptReplica(storage::ObjectId id, uint32_t version,
                               std::string_view bytes);

  /// The self-contained serialized bytes of a cataloged object (pointer
  /// parts resolved) — what repair ships to a peer. The raw image is
  /// read off the platter (not the cache) and verified against the
  /// cataloged checksum first: a rotten local copy returns Corruption
  /// rather than seeding replicas with damage. Charges device read
  /// time; the link charge belongs to the shipping side.
  StatusOr<std::string> ReadObjectBytes(storage::ObjectId id) const;

  /// Queries --------------------------------------------------------------

  /// Conjunctive query: objects whose text content, attribute values, or
  /// recognized voice words contain every word (case-insensitive
  /// whole-word match; unranked, id order). Intersects the posting lists
  /// of the index ranked queries score.
  std::vector<storage::ObjectId> QueryAll(
      const std::vector<std::string>& words) const override;

  /// Ranked query over the local scored index, best first. Charges the
  /// SimClock for the scoring work (index probes + postings scanned).
  std::vector<query::ScoredHit> QueryRanked(
      const std::vector<std::string>& words, size_t k,
      query::QueryMode mode = query::QueryMode::kConjunctive,
      const obs::TraceContext& ctx = {}) const override;

  /// Ranked query scored against externally supplied corpus statistics
  /// — the scatter path: the ShardRouter passes its catalog-wide stats
  /// index so every shard (and every replica) scores identically.
  std::vector<query::ScoredHit> QueryRankedWith(
      const std::vector<std::string>& words, size_t k,
      query::QueryMode mode, const query::ScoredIndex& global,
      const obs::TraceContext& ctx = {}) const;

  uint64_t catalog_version() const override { return catalog_version_; }

  /// The local content index (introspection / stats for tests).
  const query::ScoredIndex& scored_index() const { return scored_index_; }

  /// Builds the miniature card of an object (rendered server-side,
  /// transferred over the link).
  StatusOr<MiniatureCard> FetchMiniature(
      storage::ObjectId id, int thumb_width = 96,
      const obs::TraceContext& ctx = {}) override;

  /// Builds the cards of `ids` serially, in the order given (one
  /// machine, one arm: card costs add up). Cards that cannot be built —
  /// a storm that outlasts the retry budget — are dropped from the strip
  /// (counted in "server.cards_dropped") instead of failing the whole
  /// query; the caller presents the partial strip degraded.
  std::vector<MiniatureCard> GatherCards(
      const std::vector<storage::ObjectId>& ids,
      const obs::TraceContext& ctx = {}) override;

  /// Retrieval ------------------------------------------------------------

  /// How much of an object one Fetch transfers over the link (the
  /// namespace-scope enum, re-exported for existing call sites).
  using FetchGranularity = server::FetchGranularity;

  /// Fetches an object (descriptor + composition) over the link. A
  /// skeleton fetch discounts the DeferredBytes of the object's
  /// descriptor from the link charge.
  StatusOr<object::MultimediaObject> Fetch(
      storage::ObjectId id,
      FetchGranularity granularity = FetchGranularity::kWhole,
      const obs::TraceContext& ctx = {}) override;

  /// Fetches a specific archived version (§5 version control). The
  /// catalog tracks the latest version; older versions decode from their
  /// recorded archive address.
  StatusOr<object::MultimediaObject> FetchVersion(storage::ObjectId id,
                                                  uint32_t version);

  /// Fetches only rows [r.y, r.y+r.h) x [r.x, r.x+r.w) of a stored bitmap
  /// image part — the view-retrieval path that touches only the covering
  /// archive blocks and transfers only the region bytes ("The system will
  /// only retrieve the relevant data", §2). Unsupported for graphics
  /// images (those transfer their intersecting objects instead).
  StatusOr<image::Bitmap> FetchImageRegion(
      storage::ObjectId id, uint32_t image_index, const image::Rect& r,
      const obs::TraceContext& ctx = {}) override;

  /// Fetches one whole image part over the link.
  StatusOr<image::Image> FetchImage(storage::ObjectId id,
                                    uint32_t image_index);

  /// Demand paging --------------------------------------------------------

  /// Reads `length` bytes at `offset` within part `part_name` of the
  /// cataloged object through the archiver, landing the covering blocks
  /// in the block cache, without charging the link: the caller owns the
  /// transfer accounting (a synchronous stall or a background prefetch).
  /// The range is clamped to the part; a zero-length clamp is a no-op.
  Status StagePartRange(storage::ObjectId id, std::string_view part_name,
                        uint64_t offset, uint64_t length,
                        const obs::TraceContext& ctx = {}) override;

  /// Introspection ---------------------------------------------------------

  size_t object_count() const { return catalog_.size(); }
  const storage::Archiver& archiver() const { return *archiver_; }

  /// The workstation-facing link (borrowed; null when transfers are not
  /// charged). The prefetch pipeline shares it for background traffic.
  Link* link() const { return link_; }

  /// A single server routes everything over its one link.
  Link* RouteLink(storage::ObjectId) const override { return link_; }
  std::vector<Link*> links() const override {
    return link_ != nullptr ? std::vector<Link*>{link_} : std::vector<Link*>{};
  }

 private:
  /// Per-object catalog entry built at Store time.
  struct CatalogEntry {
    storage::ArchiveAddress address;   ///< Whole serialized object.
    object::ObjectDescriptor descriptor;
    /// Byte offset of the composition payload within the object bytes.
    uint64_t payload_base = 0;
    uint32_t version = 0;      ///< Cataloged version (1-based).
    uint32_t content_crc = 0;  ///< CRC-32 of the serialized bytes.
  };

  StatusOr<const CatalogEntry*> Lookup(storage::ObjectId id) const;

  /// Where part `part_name` of a cataloged object lies in the archive.
  struct PartExtent {
    uint64_t offset = 0;  ///< Absolute archive byte offset.
    uint64_t length = 0;
  };
  StatusOr<PartExtent> LocatePart(storage::ObjectId id,
                                  std::string_view part_name) const;

  /// Charges the link for delivering `bytes` under the retry policy (a
  /// no-op without a link). With a valid `ctx` the transfer and every
  /// backoff window record spans under it.
  Status ChargeLink(uint64_t bytes, const obs::TraceContext& ctx);

  /// Shared Store / Append / AcceptReplica tail: parses the descriptor
  /// out of the serialized bytes, installs the catalog entry and (when
  /// `reindex` is non-null) feeds the content index with it.
  Status CatalogObject(storage::ObjectId id, const std::string& bytes,
                       storage::ArchiveAddress addr, uint32_t version,
                       uint32_t content_crc,
                       const object::MultimediaObject* reindex);

  /// One delivery attempt: archive read, pointer resolution, link
  /// transfer (skipped when `over_link` is false — server-side reads),
  /// and injected wire corruption of the delivered bytes. A skeleton
  /// fetch discounts `transfer_discount` deferred payload bytes from
  /// the link charge.
  StatusOr<std::string> ReadAndDeliver(const storage::ArchiveAddress& address,
                                       bool over_link,
                                       uint64_t transfer_discount = 0,
                                       const obs::TraceContext& ctx = {});

  /// What an Append's read of its prior learns for a SharedSuccessor.
  struct PriorCheck {
    uint32_t crc = 0;         ///< In: the cataloged checksum.
    uint64_t reuse_size = 0;  ///< In: a matching record's prior size.
    uint64_t size = 0;        ///< Out: the bytes read.
    bool verified = false;    ///< Out: they hash to `crc`; never after
                              ///< a salvage.
    bool reused = false;      ///< Out: verified, of `reuse_size`; no
                              ///< decode ran (the object is empty).
  };

  /// Full object materialization with retry/backoff; on persistent
  /// corruption falls back to a lenient decode that drops unreadable
  /// voice/attribute parts (the degraded-presentation path).
  /// `span` (may be null) is the caller's span: its context parents the
  /// retry/backoff and transfer children, and a salvage fallback tags it
  /// degraded=salvage. `prior` (may be null) is checked by every attempt.
  StatusOr<object::MultimediaObject> FetchAt(
      storage::ObjectId id, const storage::ArchiveAddress& address,
      bool over_link, uint64_t transfer_discount = 0,
      obs::TraceSpan* span = nullptr, PriorCheck* prior = nullptr);

  storage::Archiver* archiver_;
  storage::VersionStore* versions_;
  SimClock* clock_;
  Link* link_;
  FaultInjector* injector_ = nullptr;  // Borrowed; wire corruption only.
  obs::Tracer* tracer_ = nullptr;      // Borrowed; may be null.
  runtime::TaskPool* pool_ = nullptr;  // Borrowed; null scores serially.
  storage::RequestScheduler* scheduler_ = nullptr;  // Borrowed; see above.
  uint64_t stage_io_seq_ = 0;  // IoRequest ids for scheduled staging reads.
  RetryPolicy retry_policy_;
  BackoffSleeper backoff_sleeper_;  // Null: backoff advances the clock.
  Random retry_rng_{0x5EED0FCA};  // Seeded backoff jitter: replayable.
  std::map<storage::ObjectId, CatalogEntry> catalog_;
  query::ScoredIndex scored_index_;  // The content index.
  voice::RecognizerParams recognizer_profile_;
  uint64_t catalog_version_ = 0;  // Bumped per successful Store.
};

}  // namespace minos::server

#endif  // MINOS_SERVER_OBJECT_SERVER_H_
