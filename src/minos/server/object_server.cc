#include "minos/server/object_server.h"

#include <algorithm>
#include <utility>

#include "minos/format/archive_mailer.h"
#include "minos/obs/metrics.h"
#include "minos/query/query_engine.h"
#include "minos/render/screen.h"
#include "minos/server/page_plan.h"
#include "minos/util/coding.h"
#include "minos/util/string_util.h"

namespace minos::server {

using object::MultimediaObject;
using object::ObjectDescriptor;
using storage::ArchiveAddress;
using storage::ObjectId;

ObjectServer::ObjectServer(storage::Archiver* archiver,
                           storage::VersionStore* versions, SimClock* clock,
                           Link* link)
    : archiver_(archiver), versions_(versions), clock_(clock), link_(link) {}

StatusOr<ArchiveAddress> ObjectServer::Store(const MultimediaObject& obj) {
  MINOS_ASSIGN_OR_RETURN(std::string bytes, obj.SerializeArchived());
  MINOS_ASSIGN_OR_RETURN(ArchiveAddress addr, archiver_->Append(bytes));
  MINOS_RETURN_IF_ERROR(archiver_->Flush());
  const uint32_t version = versions_->Record(obj.id(), addr, clock_->Now());
  MINOS_RETURN_IF_ERROR(
      CatalogObject(obj.id(), bytes, addr, version, Crc32(bytes), &obj));
  return addr;
}

Status ObjectServer::CatalogObject(ObjectId id, const std::string& bytes,
                                   ArchiveAddress addr, uint32_t version,
                                   uint32_t content_crc,
                                   const MultimediaObject* reindex) {
  // Catalog: the serialized descriptor (its parts carry composition
  // offsets) plus the payload base within the object bytes.
  Decoder dec(bytes);
  std::string desc_bytes;
  MINOS_RETURN_IF_ERROR(dec.GetLengthPrefixed(&desc_bytes));
  MINOS_ASSIGN_OR_RETURN(ObjectDescriptor desc,
                         ObjectDescriptor::Deserialize(desc_bytes));
  uint64_t data_len = 0;
  for (const object::PartPointer& p : desc.parts) {
    if (!p.in_archiver) data_len += p.length;
  }
  CatalogEntry entry;
  entry.address = addr;
  entry.descriptor = std::move(desc);
  entry.payload_base = bytes.size() - data_len;
  entry.version = version;
  entry.content_crc = content_crc;
  catalog_[id] = std::move(entry);

  if (reindex != nullptr) {
    // Content index: text words, attribute values, and the words the
    // voice recognizer produced at insertion time (we index the
    // spoken-word ground truth; a limited-vocabulary deployment would
    // index the Recognizer's output instead), with term frequencies and
    // media provenance kept, voice postings weighted by the recognizer
    // profile's confidence. Built here — at insertion time — so browsing
    // never pays recognition or indexing cost. Re-adding an id replaces
    // its previous version's terms.
    scored_index_.Add(*reindex,
                      query::VoiceConfidence(recognizer_profile_));
  }
  ++catalog_version_;
  return Status::OK();
}

StatusOr<ObjectServer::AppendResult> ObjectServer::Append(
    ObjectId id, const AppendParts& parts, SharedSuccessor* shared) {
  const bool voice_appended =
      !parts.voice.words.empty() || !parts.voice.pcm.empty();
  if (parts.text.empty() && !voice_appended) {
    return Status::InvalidArgument("append carries no content");
  }
  MINOS_ASSIGN_OR_RETURN(const CatalogEntry* entry, Lookup(id));
  // A record filled from a prior with this catalog identity may stand
  // in for this replica's successor; the read below checks the bytes.
  PriorCheck prior{entry->content_crc};
  if (shared != nullptr && !shared->image.empty() &&
      shared->prior_version == entry->version &&
      shared->prior_crc == entry->content_crc) {
    prior.reuse_size = shared->prior_size;
  }
  // Materialize the current version server-side (no link charge).
  MINOS_ASSIGN_OR_RETURN(
      MultimediaObject current,
      FetchAt(id, entry->address, /*over_link=*/false, 0, nullptr,
              shared != nullptr ? &prior : nullptr));

  // Archive from the record when this replica reused or filled it.
  bool recorded = prior.reused;
  std::string built;
  if (!recorded) {
    // Archived objects are immutable (§2): the append reopens the
    // decoded prior — this call's private copy — as the successor's
    // editing-state object, extends its parts in place, and archives it
    // whole. SerializeArchived regenerates part pointers from the
    // parts, so the descriptor carries over verbatim; its anchors stay
    // in bounds because both media only grew.
    const size_t text_base =
        current.has_text() ? current.text_part().size() : 0;
    MultimediaObject next = std::move(current).TakeForEdit();
    if (!parts.text.empty()) {
      if (!next.has_text()) MINOS_RETURN_IF_ERROR(next.SetTextPart({}));
      text::Document& doc = *next.mutable_text_part();
      const size_t at = doc.AppendText(parts.text);
      // The appended run reads as one new paragraph so logical browsing
      // and page formatting can reach it.
      doc.AddComponentSpan(text::LogicalComponent{
          text::LogicalUnit::kParagraph, {at, doc.size()}, ""});
    }
    if (next.has_voice() || voice_appended) {
      if (!next.has_voice()) {
        MINOS_RETURN_IF_ERROR(next.SetVoicePart(voice::VoiceDocument(
            {voice::PcmBuffer(parts.voice.pcm.sample_rate()), {}, {}})));
      }
      next.mutable_voice_part()->AppendTrack(parts.voice, text_base);
    }
    MINOS_RETURN_IF_ERROR(next.Archive());
    MINOS_ASSIGN_OR_RETURN(built, next.SerializeArchived());
    if (shared != nullptr && shared->image.empty() && prior.verified) {
      // Built from a verified prior: the later replicas may share it.
      *shared = SharedSuccessor{entry->version, entry->content_crc,
                                prior.size, Crc32(built), std::move(built)};
      recorded = true;
    }
  }
  const std::string& bytes = recorded ? shared->image : built;
  const uint32_t crc = recorded ? shared->crc : Crc32(bytes);

  // Device write FIRST. Nothing — catalog, version lineage, content
  // index, catalog_version_ — has been touched yet, so a write fault
  // rolls the whole Append back by construction: no phantom df
  // entries, no stale-address catalog entry.
  MINOS_ASSIGN_OR_RETURN(ArchiveAddress addr, archiver_->Append(bytes));
  MINOS_RETURN_IF_ERROR(archiver_->Flush());

  const uint32_t version = versions_->Record(id, addr, clock_->Now());
  MINOS_RETURN_IF_ERROR(
      CatalogObject(id, bytes, addr, version, crc, /*reindex=*/nullptr));
  // Incremental content indexing: only the appended words are walked —
  // the existing postings keep their weights untouched. The index hands
  // back the df/length delta the router's catalog-wide statistics apply
  // in place of a full re-add.
  query::AppendedContent content;
  content.text = parts.text;
  content.voice_words = parts.voice.words;
  AppendResult result;
  result.address = addr;
  result.version = version;
  result.delta = scored_index_.Append(
      id, content, query::VoiceConfidence(recognizer_profile_));
  obs::MetricsRegistry::Default().counter("server.appends")->Increment();
  return result;
}

CatalogDigest ObjectServer::BuildCatalogDigest(bool scrub) const {
  CatalogDigest digest;
  digest.entries.reserve(catalog_.size());
  for (const auto& [id, entry] : catalog_) {
    DigestEntry e;
    e.id = id;
    e.version = entry.version;
    e.content_crc = entry.content_crc;
    if (scrub) {
      // Re-read the archived image off the platter — past the block
      // cache, which still remembers the bytes as written — and
      // recompute the checksum, so a replica whose media rotted
      // advertises the divergent bytes it actually holds. An unreadable
      // image advertises the complement of its cataloged checksum —
      // guaranteed divergent.
      std::string bytes;
      if (archiver_->ReadUncached(entry.address, &bytes).ok()) {
        e.content_crc = Crc32(bytes);
      } else {
        e.content_crc = ~entry.content_crc;
      }
    }
    digest.entries.push_back(e);
  }
  // Digest assembly is server-side catalog work, charged like scoring.
  clock_->Advance(static_cast<Micros>(2 + catalog_.size() / 8));
  return digest;
}

StatusOr<bool> ObjectServer::AcceptReplica(ObjectId id, uint32_t version,
                                           std::string_view bytes) {
  if (version == 0) {
    return Status::InvalidArgument("replica versions are 1-based");
  }
  // Strict validation before any mutation: every part checksum must
  // verify. A corrupt or truncated replica is rejected, never archived
  // — repair must not propagate damage.
  MINOS_ASSIGN_OR_RETURN(MultimediaObject obj,
                         MultimediaObject::DeserializeArchived(id, bytes));
  const uint32_t crc = Crc32(bytes);
  bool reindex = true;
  auto it = catalog_.find(id);
  if (it != catalog_.end()) {
    if (version < it->second.version) return false;  // Never regress.
    if (version == it->second.version) {
      if (crc == it->second.content_crc) {
        // The catalog claims this exact image — but the claim is a
        // cache stamped at ingest. Verify the archived bytes — off the
        // platter, not the cache — before declaring the replica
        // redundant: rot under an unchanged catalog entry (what scrub
        // digests surface) must fall through to the re-archive below,
        // not be skipped.
        std::string current;
        if (archiver_->ReadUncached(it->second.address, &current).ok() &&
            Crc32(current) == crc) {
          return false;  // Already held, image verified.
        }
      }
      // Same version, divergent bytes: the local image failed its
      // checksum somewhere (media rot). Replace the image, keep the
      // index — the logical content is unchanged.
      reindex = false;
    }
  }
  std::string owned(bytes);
  MINOS_ASSIGN_OR_RETURN(ArchiveAddress addr, archiver_->Append(owned));
  MINOS_RETURN_IF_ERROR(archiver_->Flush());
  if (!reindex) {
    MINOS_RETURN_IF_ERROR(
        versions_->Repoint(id, version, addr, clock_->Now()));
  } else if (versions_->Get(id, version).ok()) {
    // The lineage already knows this version (e.g. the catalog lagged a
    // crash); move it to the fresh image.
    MINOS_RETURN_IF_ERROR(
        versions_->Repoint(id, version, addr, clock_->Now()));
  } else {
    MINOS_RETURN_IF_ERROR(
        versions_->RecordAs(id, version, addr, clock_->Now()));
  }
  MINOS_RETURN_IF_ERROR(CatalogObject(id, owned, addr, version, crc,
                                      reindex ? &obj : nullptr));
  obs::MetricsRegistry::Default()
      .counter("server.replicas_accepted")
      ->Increment();
  return true;
}

StatusOr<std::string> ObjectServer::ReadObjectBytes(ObjectId id) const {
  MINOS_ASSIGN_OR_RETURN(const CatalogEntry* entry, Lookup(id));
  // Repair sources self-verify: the raw image comes off the platter
  // (the cache may remember a clean write the media has since lost) and
  // must match the checksum stamped at ingest. Part checksums alone
  // cannot cover descriptor-region rot, so a whole-image mismatch here
  // is the only guard that keeps a lying platter from seeding replicas.
  std::string bytes;
  MINOS_RETURN_IF_ERROR(archiver_->ReadUncached(entry->address, &bytes));
  if (Crc32(bytes) != entry->content_crc) {
    return Status::Corruption("archived image fails its checksum; refusing "
                              "to serve it as a repair source");
  }
  format::ArchiveMailer mailer(archiver_, versions_, clock_);
  return mailer.ResolvePointers(std::move(bytes));
}

std::vector<ObjectId> ObjectServer::QueryAll(
    const std::vector<std::string>& words) const {
  std::vector<ObjectId> result;
  for (size_t i = 0; i < words.size(); ++i) {
    obs::MetricsRegistry::Default().counter("server.queries")->Increment();
    // Fold with the routine the index was built with, so "Chapter" and
    // "chapter," hit the "chapter" posting list alike.
    const query::ScoredIndex::PostingMap& postings =
        scored_index_.Postings(FoldWord(words[i]));
    if (i == 0) {
      for (const auto& [id, posting] : postings) result.push_back(id);
    } else {
      std::erase_if(result,
                    [&](ObjectId id) { return !postings.contains(id); });
    }
    if (result.empty()) break;
  }
  return result;
}

std::vector<query::ScoredHit> ObjectServer::QueryRankedWith(
    const std::vector<std::string>& words, size_t k, query::QueryMode mode,
    const query::ScoredIndex& global, const obs::TraceContext& ctx) const {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "server.score", ctx);
  obs::MetricsRegistry::Default()
      .counter("query.ranked_queries")
      ->Increment();
  query::QueryEngine engine;
  query::RankedQuery ranked =
      engine.TopK(scored_index_, global, words, k, mode, pool_);
  // Scoring is server-side CPU work; unlike card gathers it never rides
  // the link, so the clock charge is the whole latency story here.
  clock_->Advance(
      query::ScoringCost(ranked.terms_scored, ranked.postings_scanned));
  if (span.has_value()) {
    span->AddTag("terms", static_cast<int64_t>(ranked.terms_scored));
    span->AddTag("postings", static_cast<int64_t>(ranked.postings_scanned));
  }
  return std::move(ranked.hits);
}

std::vector<query::ScoredHit> ObjectServer::QueryRanked(
    const std::vector<std::string>& words, size_t k, query::QueryMode mode,
    const obs::TraceContext& ctx) const {
  return QueryRankedWith(words, k, mode, scored_index_, ctx);
}

std::vector<MiniatureCard> ObjectServer::GatherCards(
    const std::vector<ObjectId>& ids, const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "server.gather_cards", ctx);
  std::vector<MiniatureCard> cards;
  for (ObjectId id : ids) {
    StatusOr<MiniatureCard> card =
        FetchMiniature(id, 96, obs::ContextOf(span));
    if (!card.ok()) {
      // One unbuildable card must not sink the strip: drop it and let
      // the caller present the partial strip degraded.
      obs::MetricsRegistry::Default()
          .counter("server.cards_dropped")
          ->Increment();
      continue;
    }
    cards.push_back(*std::move(card));
  }
  return cards;
}

StatusOr<const ObjectServer::CatalogEntry*> ObjectServer::Lookup(
    ObjectId id) const {
  auto it = catalog_.find(id);
  if (it == catalog_.end()) {
    return Status::NotFound("object " + std::to_string(id) +
                            " is not archived at this server");
  }
  return &it->second;
}

StatusOr<ObjectServer::PartExtent> ObjectServer::LocatePart(
    ObjectId id, std::string_view part_name) const {
  MINOS_ASSIGN_OR_RETURN(const CatalogEntry* entry, Lookup(id));
  MINOS_ASSIGN_OR_RETURN(object::PartPointer part,
                         entry->descriptor.FindPart(part_name));
  // A pointer part's offset is already absolute; an inline part sits in
  // the payload of the object's own archive image.
  const uint64_t base =
      part.in_archiver ? 0 : entry->address.offset + entry->payload_base;
  return PartExtent{base + part.offset, part.length};
}

Status ObjectServer::ChargeLink(uint64_t bytes,
                                const obs::TraceContext& ctx) {
  if (link_ == nullptr) return Status::OK();
  return RetryWithBackoff<Micros>(
             retry_policy_, clock_, &retry_rng_, backoff_sleeper_,
             [&] { return link_->Transfer(bytes, ctx); },
             RetryTrace{tracer_, ctx})
      .status();
}

StatusOr<std::string> ObjectServer::ReadAndDeliver(
    const storage::ArchiveAddress& address, bool over_link,
    uint64_t transfer_discount, const obs::TraceContext& ctx) {
  std::string bytes;
  MINOS_RETURN_IF_ERROR(archiver_->Read(address, &bytes));
  format::ArchiveMailer mailer(archiver_, versions_, clock_);
  MINOS_ASSIGN_OR_RETURN(std::string resolved,
                         mailer.ResolvePointers(std::move(bytes)));
  if (over_link && link_ != nullptr) {
    uint64_t charge = resolved.size();
    charge -= std::min<uint64_t>(transfer_discount, charge);
    MINOS_RETURN_IF_ERROR(link_->Transfer(charge, ctx).status());
    if (injector_ != nullptr) injector_->MaybeCorrupt(&resolved);
  }
  return resolved;
}

StatusOr<MultimediaObject> ObjectServer::FetchAt(
    ObjectId id, const storage::ArchiveAddress& address, bool over_link,
    uint64_t transfer_discount, obs::TraceSpan* span, PriorCheck* prior) {
  const obs::TraceContext ctx =
      span != nullptr ? span->context() : obs::TraceContext{};
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  StatusOr<MultimediaObject> got = RetryWithBackoff<MultimediaObject>(
      retry_policy_, clock_, &retry_rng_, backoff_sleeper_,
      [&]() -> StatusOr<MultimediaObject> {
        MINOS_ASSIGN_OR_RETURN(
            std::string resolved,
            ReadAndDeliver(address, over_link, transfer_discount, ctx));
        if (prior != nullptr) {
          prior->size = resolved.size();
          prior->verified = Crc32(resolved) == prior->crc;
          prior->reused =
              prior->verified && resolved.size() == prior->reuse_size;
        }
        // Bytes proven identical to a recorded prior need no decode: the
        // record's successor is this replica's too.
        MultimediaObject obj(id);
        if (prior == nullptr || !prior->reused) {
          MINOS_ASSIGN_OR_RETURN(
              obj, MultimediaObject::DeserializeArchived(id, resolved));
        }
        reg.counter("server.fetches")->Increment();
        reg.histogram("server.fetch_bytes")
            ->Record(static_cast<double>(resolved.size()));
        return obj;
      },
      RetryTrace{tracer_, ctx});
  if (got.ok() || !got.status().IsCorruption()) return got;
  // Persistent corruption survived every retry (bad media or a poisoned
  // cache block, not a wire glitch). Salvage the parts whose checksums
  // still verify; the presentation manager degrades the rest. A salvaged
  // prior is never a shared successor's.
  if (prior != nullptr) prior->verified = prior->reused = false;
  StatusOr<std::string> resolved =
      ReadAndDeliver(address, over_link, transfer_discount, ctx);
  if (!resolved.ok()) return got;
  object::MultimediaObject::PartSalvageReport report;
  StatusOr<MultimediaObject> salvaged =
      MultimediaObject::DeserializeArchivedLenient(id, *resolved, &report);
  if (!salvaged.ok()) return got;  // Nothing presentable survived.
  reg.counter("server.fetches")->Increment();
  reg.counter("server.fetch_salvages")->Increment();
  reg.histogram("server.fetch_bytes")
      ->Record(static_cast<double>(resolved->size()));
  if (span != nullptr) span->AddTag("degraded", "salvage");
  return salvaged;
}

Status ObjectServer::StagePartRange(ObjectId id, std::string_view part_name,
                                    uint64_t offset, uint64_t length,
                                    const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "server.stage", ctx);
  if (span.has_value()) span->AddTag("part", std::string(part_name));
  MINOS_ASSIGN_OR_RETURN(const PartExtent part, LocatePart(id, part_name));
  if (offset >= part.length) return Status::OK();
  length = std::min(length, part.length - offset);
  if (length == 0) return Status::OK();
  const uint64_t abs_offset = part.offset + offset;
  if (scheduler_ == nullptr) {
    std::string scratch;
    return archiver_->ReadRange(abs_offset, length, &scratch);
  }
  // Scheduler installed: replace the archiver's naive device charge with
  // a lane-scheduled one. The read runs inline to learn which blocks
  // actually missed the cache; the clock then rewinds and the miss, if
  // any, is re-booked as an IoRequest in the lane the live Link scope
  // implies — kBackground while a prefetch BackgroundScope is active,
  // kForeground otherwise — so foreground page deliveries preempt
  // speculative staging at the disk arm.
  const bool background = link_ != nullptr && link_->in_background();
  if (span.has_value()) {
    span->AddTag("lane", background ? "background" : "foreground");
  }
  const Micros before = clock_->Now();
  const uint64_t blocks_before = archiver_->device().stats().blocks_read;
  std::string scratch;
  MINOS_RETURN_IF_ERROR(archiver_->ReadRange(abs_offset, length, &scratch));
  const uint64_t fetched =
      archiver_->device().stats().blocks_read - blocks_before;
  clock_->RewindTo(before);
  if (fetched == 0) return Status::OK();  // Pure cache hit: no arm time.
  storage::IoRequest req;
  req.id = ++stage_io_seq_;
  req.block = abs_offset / archiver_->device().block_size();
  req.count = fetched;
  req.arrival_time = before;
  req.priority = background ? storage::IoPriority::kBackground
                            : storage::IoPriority::kForeground;
  // The scheduler records a "scheduler.queue_wait" child span under this
  // context whenever the request actually waits behind other accesses.
  req.trace = obs::ContextOf(span);
  scheduler_->SetTracer(tracer_);
  std::vector<storage::IoCompletion> done = scheduler_->Run({req});
  if (span.has_value() && !done.empty()) {
    span->AddTag("queue_wait_us", done.front().queueing_delay);
  }
  return Status::OK();
}

StatusOr<MultimediaObject> ObjectServer::Fetch(
    ObjectId id, FetchGranularity granularity,
    const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "server.fetch", ctx);
  if (span.has_value()) {
    span->AddTag("object", static_cast<int64_t>(id));
    span->AddTag("granularity",
                 granularity == FetchGranularity::kSkeleton ? "skeleton"
                                                            : "whole");
  }
  MINOS_ASSIGN_OR_RETURN(const CatalogEntry* entry, Lookup(id));
  uint64_t discount = 0;
  if (granularity == FetchGranularity::kSkeleton) {
    discount = DeferredBytes(entry->descriptor);
  }
  return FetchAt(id, entry->address, /*over_link=*/true, discount,
                 span.has_value() ? &*span : nullptr);
}

StatusOr<MultimediaObject> ObjectServer::FetchVersion(ObjectId id,
                                                      uint32_t version) {
  MINOS_ASSIGN_OR_RETURN(storage::ObjectVersion v,
                         versions_->Get(id, version));
  return FetchAt(id, v.address, /*over_link=*/true);
}

StatusOr<MiniatureCard> ObjectServer::FetchMiniature(
    ObjectId id, int thumb_width, const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "server.miniature", ctx);
  if (span.has_value()) span->AddTag("object", static_cast<int64_t>(id));
  MINOS_ASSIGN_OR_RETURN(const CatalogEntry* entry, Lookup(id));
  // The server renders the miniature locally (no link charge for the
  // object itself), then ships the small card.
  MINOS_ASSIGN_OR_RETURN(MultimediaObject obj,
                         FetchAt(id, entry->address, /*over_link=*/false, 0,
                                 span.has_value() ? &*span : nullptr));

  MiniatureCard card;
  card.id = id;
  card.audio_mode =
      obj.descriptor().driving_mode == object::DrivingMode::kAudio;
  if (card.audio_mode) {
    // "an indication that an object is an audio mode object and some
    // voice segments which are played as the miniature passes" (§5).
    // A salvaged object may have lost its voice part; its card then
    // carries the audio marker with no preview.
    std::string preview;
    if (obj.has_voice()) {
      const auto& words = obj.voice_part().track().words;
      for (size_t i = 0; i < words.size() && i < 6; ++i) {
        if (!preview.empty()) preview += ' ';
        preview += words[i].word;
      }
    }
    card.preview_transcript = std::move(preview);
    card.thumb = image::Bitmap(thumb_width, thumb_width / 2);
    // Simple loudspeaker glyph so audio cards are visually distinct.
    card.thumb.FillRect(image::Rect{thumb_width / 4, thumb_width / 8,
                                    thumb_width / 2, thumb_width / 4},
                        180);
  } else if (!obj.descriptor().pages.empty()) {
    render::Screen page_screen(render::ScreenLayout{320, 240, 0, 0});
    core::PageCompositor compositor(&page_screen);
    MINOS_ASSIGN_OR_RETURN(core::FormattedText formatted,
                           core::FormatObjectText(obj));
    MINOS_RETURN_IF_ERROR(compositor.ComposePage(
        obj, formatted, 0, image::Rect{0, 0, 320, 240}));
    const int scale = std::max(1, 320 / thumb_width);
    MINOS_ASSIGN_OR_RETURN(
        image::Miniature mini,
        image::Miniature::Build(
            image::Image::FromBitmap(page_screen.framebuffer()), scale));
    card.thumb = mini.raster();
  } else {
    card.thumb = image::Bitmap(thumb_width, thumb_width / 2);
  }
  card.byte_size = card.thumb.ByteSize() + card.preview_transcript.size();
  MINOS_RETURN_IF_ERROR(ChargeLink(card.byte_size, obs::ContextOf(span)));
  return card;
}

StatusOr<image::Image> ObjectServer::FetchImage(ObjectId id,
                                                uint32_t image_index) {
  MINOS_ASSIGN_OR_RETURN(
      const PartExtent part,
      LocatePart(id, "image:" + std::to_string(image_index)));
  std::string payload;
  MINOS_RETURN_IF_ERROR(
      archiver_->ReadRange(part.offset, part.length, &payload));
  MINOS_RETURN_IF_ERROR(ChargeLink(payload.size(), {}));
  return image::Image::Deserialize(payload);
}

StatusOr<image::Bitmap> ObjectServer::FetchImageRegion(
    ObjectId id, uint32_t image_index, const image::Rect& r,
    const obs::TraceContext& ctx) {
  std::optional<obs::TraceSpan> span =
      obs::MaybeStartSpan(tracer_, "server.region", ctx);
  if (span.has_value()) span->AddTag("object", static_cast<int64_t>(id));
  MINOS_ASSIGN_OR_RETURN(
      const PartExtent part,
      LocatePart(id, "image:" + std::to_string(image_index)));

  // Decode the serialized-image header: [kind][varint w][varint h].
  std::string header;
  const uint64_t header_probe = std::min<uint64_t>(part.length, 16);
  MINOS_RETURN_IF_ERROR(
      archiver_->ReadRange(part.offset, header_probe, &header));
  if (header.empty() || header[0] != 0) {
    return Status::Unsupported(
        "region fetch is only defined for bitmap images");
  }
  Decoder dec(std::string_view(header).substr(1));
  uint32_t w = 0, h = 0;
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&w));
  MINOS_RETURN_IF_ERROR(dec.GetVarint32(&h));
  const uint64_t header_size = header_probe - dec.remaining();

  const image::Rect clipped =
      r.Intersect(image::Rect{0, 0, static_cast<int>(w),
                              static_cast<int>(h)});
  image::Bitmap out(clipped.w, clipped.h);
  std::string row;
  for (int y = 0; y < clipped.h; ++y) {
    const uint64_t row_offset =
        header_size +
        static_cast<uint64_t>(clipped.y + y) * w + clipped.x;
    MINOS_RETURN_IF_ERROR(archiver_->ReadRange(
        part.offset + row_offset, static_cast<uint64_t>(clipped.w), &row));
    for (int x = 0; x < clipped.w; ++x) {
      out.Set(x, y, static_cast<uint8_t>(row[static_cast<size_t>(x)]));
    }
  }
  MINOS_RETURN_IF_ERROR(ChargeLink(static_cast<uint64_t>(clipped.area()),
                                   obs::ContextOf(span)));
  return out;
}

}  // namespace minos::server
