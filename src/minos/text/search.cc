#include "minos/text/search.h"

#include <algorithm>
#include <cctype>
#include <array>

#include "minos/obs/metrics.h"
#include "minos/util/string_util.h"

namespace minos::text {

namespace {

/// Registry-owned pattern-matching statistics ("text.search.*"): direct
/// scans, match yield and scanned bytes. Pointers cached once; the
/// default registry's Reset() keeps them valid.
struct SearchMetrics {
  obs::Counter* scans;
  obs::Counter* matches;
  obs::Counter* scanned_bytes;
};

SearchMetrics& Metrics() {
  static SearchMetrics* m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return new SearchMetrics{
        reg.counter("text.search.scans"),
        reg.counter("text.search.matches"),
        reg.counter("text.search.scanned_bytes"),
    };
  }();
  return *m;
}

/// Boyer-Moore-Horspool bad-character table.
std::array<size_t, 256> BuildSkipTable(std::string_view pattern) {
  std::array<size_t, 256> skip;
  skip.fill(pattern.size());
  for (size_t i = 0; i + 1 < pattern.size(); ++i) {
    skip[static_cast<unsigned char>(pattern[i])] = pattern.size() - 1 - i;
  }
  return skip;
}

}  // namespace

std::vector<size_t> FindAll(std::string_view text,
                            std::string_view pattern) {
  std::vector<size_t> hits;
  const size_t m = pattern.size();
  if (m == 0 || text.size() < m) return hits;
  SearchMetrics& metrics = Metrics();
  metrics.scans->Increment();
  metrics.scanned_bytes->Increment(static_cast<int64_t>(text.size()));
  const std::array<size_t, 256> skip = BuildSkipTable(pattern);
  size_t i = 0;
  while (i + m <= text.size()) {
    size_t j = m;
    while (j > 0 && text[i + j - 1] == pattern[j - 1]) --j;
    if (j == 0) {
      hits.push_back(i);
      ++i;  // Allow overlapping occurrences.
    } else {
      i += skip[static_cast<unsigned char>(text[i + m - 1])];
    }
  }
  metrics.matches->Increment(static_cast<int64_t>(hits.size()));
  return hits;
}

StatusOr<size_t> FindNext(std::string_view text, std::string_view pattern,
                          size_t from) {
  if (pattern.empty()) return Status::InvalidArgument("empty pattern");
  if (from >= text.size()) return Status::NotFound("pattern not found");
  const std::vector<size_t> hits = FindAll(text.substr(from), pattern);
  if (hits.empty()) return Status::NotFound("pattern not found");
  return from + hits.front();
}

StatusOr<size_t> FindPrevious(std::string_view text,
                              std::string_view pattern, size_t from) {
  if (pattern.empty()) return Status::InvalidArgument("empty pattern");
  const std::vector<size_t> hits =
      FindAll(text.substr(0, std::min(from + pattern.size(), text.size())),
              pattern);
  for (auto it = hits.rbegin(); it != hits.rend(); ++it) {
    if (*it < from) return *it;
  }
  return Status::NotFound("pattern not found");
}

void WordIndex::Build(const Document& doc) {
  for (const LogicalComponent& w : doc.Components(LogicalUnit::kWord)) {
    // FoldWord strips trailing punctuation so "map," indexes as "map".
    const std::string word = FoldWord(std::string_view(doc.contents())
                                          .substr(w.span.begin,
                                                  w.span.length()));
    if (word.empty()) continue;
    AddPosting(word, w.span.begin);
  }
}

void WordIndex::AddPosting(std::string_view word, size_t position) {
  std::vector<size_t>& list = postings_[AsciiToLower(word)];
  // Keep postings sorted; additions are usually in order already.
  if (!list.empty() && list.back() > position) {
    list.insert(std::upper_bound(list.begin(), list.end(), position),
                position);
  } else {
    list.push_back(position);
  }
}

const std::vector<size_t>& WordIndex::Positions(
    std::string_view word) const {
  static const std::vector<size_t>* empty = new std::vector<size_t>();
  obs::MetricsRegistry::Default().counter("text.index.lookups")->Increment();
  auto it = postings_.find(AsciiToLower(word));
  return it == postings_.end() ? *empty : it->second;
}

StatusOr<size_t> WordIndex::NextOccurrence(std::string_view word,
                                           size_t from) const {
  const std::vector<size_t>& list = Positions(word);
  auto it = std::lower_bound(list.begin(), list.end(), from);
  if (it == list.end()) return Status::NotFound("word not found");
  return *it;
}

StatusOr<size_t> WordIndex::PreviousOccurrence(std::string_view word,
                                               size_t from) const {
  const std::vector<size_t>& list = Positions(word);
  auto it = std::lower_bound(list.begin(), list.end(), from);
  if (it == list.begin()) return Status::NotFound("word not found");
  return *(--it);
}

}  // namespace minos::text
