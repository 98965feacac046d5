#ifndef MINOS_QUERY_SCORED_INDEX_H_
#define MINOS_QUERY_SCORED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "minos/object/multimedia_object.h"
#include "minos/storage/version_store.h"
#include "minos/voice/recognizer.h"

namespace minos::query {

/// One object's accumulated weight for one term, split by medium so the
/// scorer (and the tests) can see where a hit came from. Text and
/// attribute occurrences count 1.0 each; recognized-voice occurrences
/// count the recognizer confidence each, so a false-alarm-prone spotter
/// cannot outrank clean text evidence.
struct TermPosting {
  double text_tf = 0;   ///< Raw text + attribute occurrences.
  double voice_tf = 0;  ///< Confidence-weighted voice occurrences.
  double tf() const { return text_tf + voice_tf; }
};

/// Corpus-level statistics the BM25 scorer needs. For a single server
/// these are the local index's own; for a sharded store the router keeps
/// the catalog-wide figures (each object counted once, not once per
/// replica) and hands them to every shard so per-shard scores agree.
struct CorpusStats {
  uint64_t doc_count = 0;
  double total_length = 0;  ///< Sum of weighted object lengths.
  double AvgLength() const {
    return doc_count > 0 ? total_length / static_cast<double>(doc_count)
                         : 0.0;
  }
};

/// The weight one recognized-voice posting carries under `profile`: the
/// spotter's hit rate discounted by its false-alarm rate. A perfect
/// recognizer weighs voice words like text words (1.0); the default
/// profile (85% hits, 1% false alarms) weighs them ~0.84.
double VoiceConfidence(const voice::RecognizerParams& profile);

/// Content an Append folds into an already-indexed object: raw text
/// (indexed at weight 1.0, like the text part) and recognized-voice
/// words (indexed at the recognizer confidence) — the same two
/// symmetric sources Add indexes at Store time.
struct AppendedContent {
  std::string text;
  std::vector<voice::WordAlignment> voice_words;
};

/// The stats-only footprint of one incremental Append: exactly the
/// document-frequency and length changes a catalog-wide statistics
/// index needs to stay exact, with no posting payload. The ShardRouter
/// applies one of these per logical Append instead of re-adding the
/// whole object — delta sync, not rebuild.
struct IndexDelta {
  storage::ObjectId id = 0;
  /// Terms this object did not contain before the append (df += 1).
  std::vector<std::string> new_terms;
  /// Weighted content length added (text words + confidence-weighted
  /// voice words).
  double length_delta = 0;
  /// True when the append created the document (id was unindexed).
  bool new_doc = false;

  bool empty() const {
    return new_terms.empty() && length_delta == 0 && !new_doc;
  }
};

/// The content index built at insertion time (§2: recognition and
/// indexing happen when an object is stored, never at browsing time).
/// It unifies the same two sources text::WordIndex already unifies —
/// text-document words and recognized voice utterances — but keeps term
/// frequencies and media provenance instead of bare positions. Boolean
/// queries intersect its posting lists; ranked queries score them.
///
/// A stats-only index (the ShardRouter's) keeps document frequencies and
/// lengths but no postings: enough to serve global BM25 statistics
/// without duplicating every shard's posting lists.
class ScoredIndex {
 public:
  using PostingMap = std::map<storage::ObjectId, TermPosting>;

  explicit ScoredIndex(bool stats_only = false)
      : stats_only_(stats_only) {}

  /// Indexes the object's text part, attribute values, and voice-track
  /// words (each weighted by `voice_confidence`). Re-adding an id first
  /// removes its previous contribution, so a re-stored version replaces
  /// rather than double-counts.
  void Add(const object::MultimediaObject& obj, double voice_confidence);

  /// Removes every contribution of `id` (no-op when absent).
  void Remove(storage::ObjectId id);

  /// Folds appended content into `id` *incrementally*: existing postings
  /// keep their weight and only the delta's words are walked — never the
  /// whole object. Creates the document when absent. Returns the
  /// stats-only delta a catalog-wide index applies via ApplyDelta so
  /// global statistics stay exact without a rebuild.
  IndexDelta Append(storage::ObjectId id, const AppendedContent& content,
                    double voice_confidence);

  /// Applies an Append's document-frequency and length changes to a
  /// stats-only index (postings are not represented there, so the delta
  /// is the complete update). Calling this on a postings-bearing index
  /// would desynchronize df from the posting lists; use Append instead.
  void ApplyDelta(const IndexDelta& delta);

  /// Postings of a folded term; empty map when absent or stats-only.
  const PostingMap& Postings(std::string_view term) const {
    return Entry(term).postings;
  }

  /// Number of objects whose content contains the folded term.
  uint64_t DocFreq(std::string_view term) const { return Entry(term).df; }

  /// Upper bound on any single posting's tf() for the folded term (0
  /// when absent or stats-only). Maintained incrementally by
  /// Add/Append, recomputed on Remove — what the max-score pruned
  /// scorer turns into a per-term score ceiling.
  double MaxTf(std::string_view term) const { return Entry(term).max_tf; }

  /// Lower bound on the weighted length of any document holding the
  /// folded term (0 — the most conservative floor — when absent or
  /// stats-only). Lengths only grow, so the bound snapshots lengths at
  /// posting time and recomputes on Remove. Together with MaxTf this
  /// caps the term's BM25 contribution: tf·(k1+1)/(tf+norm) is
  /// increasing in tf and decreasing in norm, so evaluating it at
  /// (MaxTf, MinDocLen) bounds every real posting.
  double MinDocLen(std::string_view term) const {
    return Entry(term).min_len;
  }

  /// Weighted content length of `id` (0 when unknown).
  double DocLength(storage::ObjectId id) const;

  const CorpusStats& stats() const { return stats_; }
  size_t vocabulary_size() const { return terms_.size(); }
  bool stats_only() const { return stats_only_; }

  /// Monotonic mutation counter, bumped by every Add/Remove that changes
  /// the index. Concurrent pool tasks read the index lock-free; this
  /// lets callers assert (in debug/tests) that nobody mutated it while
  /// a parallel scoring epoch was in flight.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Splits the indexed object-id space into `parts` contiguous ranges
  /// of roughly equal document count and returns the `parts - 1` first
  /// ids of ranges 1..parts-1. Partition k covers ids in
  /// [points[k-1], points[k]) (with points[-1] = 0 and points[parts-1] =
  /// +inf). A pure function of index content — never of thread count —
  /// so partitioned scoring decomposes work identically on any pool.
  std::vector<storage::ObjectId> PartitionPoints(size_t parts) const;

 private:
  /// Everything the index knows about one term. A stats-only index
  /// fills only `df`.
  struct TermEntry {
    uint64_t df = 0;  ///< Documents holding the term.
    /// The max-score pruning bounds: the largest posting tf() and the
    /// shortest holder length.
    double max_tf = 0;
    double min_len = 0;
    PostingMap postings;
  };

  /// Hashes terms and the string_views they are probed with alike.
  struct TermHash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>{}(term);
    }
  };

  /// The term's entry; an empty one (all zero) when absent.
  const TermEntry& Entry(std::string_view term) const;

  /// One Add or Append call's folding of a document's occurrences.
  class TermFold;

  bool stats_only_;
  std::atomic<uint64_t> version_{0};
  CorpusStats stats_;
  /// One entry per term with df > 0. Hashed: nothing iterates it in
  /// order, and entries (with their posting maps) never move.
  std::unordered_map<std::string, TermEntry, TermHash, std::equal_to<>>
      terms_;
  std::map<storage::ObjectId, double> lengths_;
  /// Distinct terms per object — what Remove must unwind.
  std::map<storage::ObjectId, std::vector<std::string>> doc_terms_;
};

}  // namespace minos::query

#endif  // MINOS_QUERY_SCORED_INDEX_H_
