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

void ScoredIndex::AddTerm(storage::ObjectId id, const std::string& term,
                          double text_weight, double voice_weight,
                          std::vector<std::string>* new_terms) {
  if (term.empty()) return;
  TermEntry& entry = terms_[term];
  if (!stats_only_) {
    TermPosting& posting = entry.postings[id];
    posting.text_tf += text_weight;
    posting.voice_tf += voice_weight;
    entry.max_tf = std::max(entry.max_tf, posting.tf());
  }
  std::vector<std::string>& terms = doc_terms_[id];
  if (std::find(terms.begin(), terms.end(), term) == terms.end()) {
    terms.push_back(term);
    ++entry.df;
    if (new_terms != nullptr) new_terms->push_back(term);
  }
  lengths_[id] += text_weight + voice_weight;
  stats_.total_length += text_weight + voice_weight;
}

void ScoredIndex::FloorHolderLengths(storage::ObjectId id,
                                     const std::vector<std::string>& terms) {
  if (stats_only_) return;
  // Snapshot the document's length as of the end of this indexing
  // operation. The document can only grow from here (Append never
  // shrinks), so the floor stays valid without ever being revisited.
  const double len = lengths_[id];
  for (const std::string& term : terms) {
    TermEntry& entry = terms_.find(term)->second;
    // `id` is a new holder of each of `terms`: when it is the only one,
    // its length is the floor.
    entry.min_len = entry.df == 1 ? len : std::min(entry.min_len, len);
  }
}

void ScoredIndex::Add(const object::MultimediaObject& obj,
                      double voice_confidence) {
  const storage::ObjectId id = obj.id();
  Remove(id);
  version_.fetch_add(1, std::memory_order_acq_rel);
  ++stats_.doc_count;
  lengths_[id] = 0;
  doc_terms_[id] = {};
  if (obj.has_text()) {
    for (const std::string& w : SplitWords(obj.text_part().contents())) {
      AddTerm(id, FoldWord(w), 1.0, 0.0);
    }
  }
  for (const auto& [name, value] : obj.attributes()) {
    for (const std::string& w : SplitWords(value)) {
      AddTerm(id, FoldWord(w), 1.0, 0.0);
    }
  }
  if (obj.has_voice()) {
    for (const voice::WordAlignment& w : obj.voice_part().track().words) {
      AddTerm(id, FoldWord(w.word), 0.0, voice_confidence);
    }
  }
  FloorHolderLengths(id, doc_terms_[id]);
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
  for (const std::string& w : SplitWords(content.text)) {
    AddTerm(id, FoldWord(w), 1.0, 0.0, &delta.new_terms);
  }
  for (const voice::WordAlignment& w : content.voice_words) {
    AddTerm(id, FoldWord(w.word), 0.0, voice_confidence, &delta.new_terms);
  }
  delta.length_delta = lengths_[id] - length_before;
  // Only terms this append made the document a NEW holder of can lower
  // a holder-length floor; for terms it already held, the floors stay
  // conservative as the document grows.
  FloorHolderLengths(id, delta.new_terms);
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
