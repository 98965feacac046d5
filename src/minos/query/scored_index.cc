#include "minos/query/scored_index.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "minos/util/string_util.h"

namespace minos::query {

double VoiceConfidence(const voice::RecognizerParams& profile) {
  const double confidence =
      profile.hit_rate * (1.0 - profile.false_alarm_rate);
  return std::clamp(confidence, 0.0, 1.0);
}

/// Folds one Add or Append call's term occurrences into document `id`.
/// Each distinct term is resolved once — one term-table probe, one
/// posting insert (end-hinted: new ids are usually the largest), one
/// holder check — and its repeats reuse the resolved entry and posting.
/// Every tf and length addition still happens once per occurrence, in
/// occurrence order, so each sum is bit-identical to folding the
/// occurrences one at a time.
class ScoredIndex::TermFold {
 public:
  /// Terms `id` newly holds are appended to `new_terms` when non-null.
  TermFold(ScoredIndex* index, storage::ObjectId id,
           std::vector<std::string>* new_terms)
      : index_(*index),
        id_(id),
        length_(index->lengths_[id]),
        doc_terms_(index->doc_terms_[id]),
        fresh_doc_(doc_terms_.empty()),
        new_terms_(new_terms) {}

  void Add(std::string term, double text_weight, double voice_weight) {
    if (term.empty()) return;
    auto it = seen_.find(term);
    if (it == seen_.end()) it = Resolve(std::move(term));
    if (TermPosting* posting = it->second.posting) {
      posting->text_tf += text_weight;
      posting->voice_tf += voice_weight;
      it->second.entry->max_tf =
          std::max(it->second.entry->max_tf, posting->tf());
    }
    length_ += text_weight + voice_weight;
    index_.stats_.total_length += text_weight + voice_weight;
  }

  /// Lowers the holder-length floor of every term `id` newly holds to
  /// its end-of-call length where that is smaller. The document only
  /// grows from here (Append never shrinks), so the floor stays valid
  /// without being revisited; for terms it already held, the floors
  /// stay conservative as it grows.
  void FloorHolderLengths() {
    if (index_.stats_only_) return;
    for (const auto& [term, slot] : seen_) {
      if (!slot.fresh) continue;
      // When `id` is the only holder, its length is the floor.
      slot.entry->min_len = slot.entry->df == 1
                                ? length_
                                : std::min(slot.entry->min_len, length_);
    }
  }

 private:
  struct Slot {
    TermEntry* entry;
    TermPosting* posting;  ///< Null in a stats-only index.
    bool fresh;            ///< `id` became a holder in this call.
  };
  /// Keyed by views of the term table's own keys, which never move.
  using SlotMap = std::unordered_map<std::string_view, Slot>;

  SlotMap::iterator Resolve(std::string term) {
    const auto entry_it = index_.terms_.try_emplace(std::move(term)).first;
    TermEntry& entry = entry_it->second;
    Slot slot{&entry, nullptr, fresh_doc_};
    if (!index_.stats_only_) {
      const size_t holders = entry.postings.size();
      slot.posting =
          &entry.postings.try_emplace(entry.postings.end(), id_)->second;
      slot.fresh = entry.postings.size() > holders;
    } else if (!fresh_doc_) {
      slot.fresh = std::find(doc_terms_.begin(), doc_terms_.end(),
                             entry_it->first) == doc_terms_.end();
    }
    if (slot.fresh) {
      doc_terms_.push_back(entry_it->first);
      ++entry.df;
      if (new_terms_ != nullptr) new_terms_->push_back(entry_it->first);
    }
    return seen_.emplace(entry_it->first, slot).first;
  }

  ScoredIndex& index_;
  const storage::ObjectId id_;
  double& length_;
  std::vector<std::string>& doc_terms_;
  const bool fresh_doc_;  ///< `id` held no term: every term is new.
  std::vector<std::string>* new_terms_;
  SlotMap seen_;
};

void ScoredIndex::Add(const object::MultimediaObject& obj,
                      double voice_confidence) {
  const storage::ObjectId id = obj.id();
  Remove(id);
  version_.fetch_add(1, std::memory_order_acq_rel);
  ++stats_.doc_count;
  lengths_[id] = 0;
  doc_terms_[id] = {};
  TermFold fold(this, id, nullptr);
  if (obj.has_text()) {
    for (const std::string& w : SplitWords(obj.text_part().contents())) {
      fold.Add(FoldWord(w), 1.0, 0.0);
    }
  }
  for (const auto& [name, value] : obj.attributes()) {
    for (const std::string& w : SplitWords(value)) {
      fold.Add(FoldWord(w), 1.0, 0.0);
    }
  }
  if (obj.has_voice()) {
    for (const voice::WordAlignment& w : obj.voice_part().track().words) {
      fold.Add(FoldWord(w.word), 0.0, voice_confidence);
    }
  }
  fold.FloorHolderLengths();
}

IndexDelta ScoredIndex::Append(storage::ObjectId id,
                               const AppendedContent& content,
                               double voice_confidence) {
  IndexDelta delta;
  delta.id = id;
  version_.fetch_add(1, std::memory_order_acq_rel);
  if (lengths_.find(id) == lengths_.end()) {
    ++stats_.doc_count;
    lengths_[id] = 0;
    doc_terms_[id];
    delta.new_doc = true;
  }
  const double length_before = lengths_[id];
  TermFold fold(this, id, &delta.new_terms);
  for (const std::string& w : SplitWords(content.text)) {
    fold.Add(FoldWord(w), 1.0, 0.0);
  }
  for (const voice::WordAlignment& w : content.voice_words) {
    fold.Add(FoldWord(w.word), 0.0, voice_confidence);
  }
  delta.length_delta = lengths_[id] - length_before;
  fold.FloorHolderLengths();
  return delta;
}

void ScoredIndex::ApplyDelta(const IndexDelta& delta) {
  version_.fetch_add(1, std::memory_order_acq_rel);
  if (lengths_.find(delta.id) == lengths_.end()) {
    ++stats_.doc_count;
    lengths_[delta.id] = 0;
    doc_terms_[delta.id];
  }
  std::vector<std::string>& terms = doc_terms_[delta.id];
  for (const std::string& term : delta.new_terms) {
    ++terms_[term].df;
    terms.push_back(term);
  }
  lengths_[delta.id] += delta.length_delta;
  stats_.total_length += delta.length_delta;
}

void ScoredIndex::Remove(storage::ObjectId id) {
  auto terms_it = doc_terms_.find(id);
  if (terms_it == doc_terms_.end()) return;
  version_.fetch_add(1, std::memory_order_acq_rel);
  for (const std::string& term : terms_it->second) {
    auto it = terms_.find(term);
    if (it == terms_.end()) continue;
    TermEntry& entry = it->second;
    if (--entry.df == 0) {
      terms_.erase(it);
      continue;
    }
    if (stats_only_) continue;
    entry.postings.erase(id);
    // The departing posting may have carried either bound: recompute
    // over the survivors (rare path — only re-stores come here).
    entry.max_tf = 0;
    entry.min_len = std::numeric_limits<double>::max();
    for (const auto& [rest_id, rest] : entry.postings) {
      entry.max_tf = std::max(entry.max_tf, rest.tf());
      entry.min_len = std::min(entry.min_len, DocLength(rest_id));
    }
  }
  auto length = lengths_.find(id);
  if (length != lengths_.end()) {
    stats_.total_length -= length->second;
    lengths_.erase(length);
  }
  doc_terms_.erase(terms_it);
  --stats_.doc_count;
}

const ScoredIndex::TermEntry& ScoredIndex::Entry(
    std::string_view term) const {
  static const TermEntry* absent = new TermEntry();
  auto it = terms_.find(term);
  return it == terms_.end() ? *absent : it->second;
}

double ScoredIndex::DocLength(storage::ObjectId id) const {
  auto it = lengths_.find(id);
  return it == lengths_.end() ? 0.0 : it->second;
}

std::vector<storage::ObjectId> ScoredIndex::PartitionPoints(
    size_t parts) const {
  std::vector<storage::ObjectId> points;
  if (parts <= 1) return points;
  points.reserve(parts - 1);
  // lengths_ is ordered by id, so the k-th quantile key starts range k.
  const size_t n = lengths_.size();
  size_t next = 1;
  size_t i = 0;
  for (const auto& [id, length] : lengths_) {
    while (next < parts && i >= next * n / parts) {
      points.push_back(id);
      ++next;
    }
    if (next >= parts) break;
    ++i;
  }
  // Fewer documents than partitions: pad with past-the-end sentinels so
  // callers always get parts - 1 boundaries (empty tail ranges).
  while (points.size() < parts - 1) {
    points.push_back(std::numeric_limits<storage::ObjectId>::max());
  }
  return points;
}

}  // namespace minos::query
