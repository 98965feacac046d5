// Property test for the max-score pruned top-k scorer: across seeded
// random catalogs, query shapes, conjunctive and disjunctive modes, and
// worker counts 1/2/4, the pruned scorer must return bit-identical ids
// AND bit-identical scores to the exhaustive reference scorer — pruning
// is an optimization, never an approximation — while actually skipping
// postings on selective disjunctive queries. The index itself is held
// to a brute-force model under re-adds, appends and removals.

#include "minos/query/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "minos/object/multimedia_object.h"
#include "minos/query/scored_index.h"
#include "minos/runtime/task_pool.h"
#include "minos/text/document.h"
#include "minos/util/random.h"
#include "minos/voice/voice_document.h"

namespace minos::query {
namespace {

using storage::ObjectId;

/// Vocabulary word `n` ("w<n>"), built by appending: GCC 12 warns
/// (-Wrestrict) on "literal" + std::string&& at -O3.
std::string Word(size_t n) {
  std::string word = "w";
  word += std::to_string(n);
  return word;
}

/// A seeded random catalog: `docs` documents over a `vocab`-word
/// vocabulary with a skewed word distribution (low word indexes are
/// common, high ones rare — what gives idf and max-score bounds their
/// spread), built through the incremental Append path.
void BuildCatalog(uint64_t seed, size_t docs, size_t vocab,
                  ScoredIndex* index) {
  Random rng(seed);
  for (ObjectId id = 1; id <= docs; ++id) {
    const size_t words = 4 + rng.Uniform(24);
    AppendedContent content;
    for (size_t w = 0; w < words; ++w) {
      // Squared-uniform skew: word 0 is everywhere, the tail is rare.
      const size_t pick = (rng.Uniform(vocab) * rng.Uniform(vocab)) / vocab;
      content.text += Word(pick) + " ";
    }
    index->Append(id, content, 0.0);
  }
}

std::vector<std::string> RandomQuery(Random* rng, size_t vocab) {
  const size_t terms = 1 + rng->Uniform(4);
  std::vector<std::string> words;
  for (size_t t = 0; t < terms; ++t) {
    words.push_back(Word(rng->Uniform(vocab)));
  }
  return words;
}

void ExpectBitIdentical(const RankedQuery& pruned,
                        const RankedQuery& exact,
                        const std::string& label) {
  ASSERT_EQ(pruned.hits.size(), exact.hits.size()) << label;
  for (size_t i = 0; i < exact.hits.size(); ++i) {
    EXPECT_EQ(pruned.hits[i].id, exact.hits[i].id)
        << label << " rank " << i;
    // EXPECT_EQ on doubles is exact: bit-identical, not within-epsilon.
    EXPECT_EQ(pruned.hits[i].score, exact.hits[i].score)
        << label << " rank " << i;
  }
}

TEST(PrunedTopKProperty, BitIdenticalToExhaustiveAcrossRandomCatalogs) {
  const QueryEngine exhaustive({}, ScoringStrategy::kExhaustive);
  const QueryEngine pruned({}, ScoringStrategy::kMaxScore);
  for (const uint64_t seed : {11u, 42u, 1986u}) {
    const size_t vocab = 40;
    ScoredIndex index;
    BuildCatalog(seed, 300, vocab, &index);
    Random rng(seed ^ 0xABCDEF);
    for (int trial = 0; trial < 40; ++trial) {
      const std::vector<std::string> words = RandomQuery(&rng, vocab);
      const size_t k = 1 + rng.Uniform(12);
      for (const QueryMode mode :
           {QueryMode::kConjunctive, QueryMode::kDisjunctive}) {
        const RankedQuery exact =
            exhaustive.TopK(index, index, words, k, mode);
        const RankedQuery fast = pruned.TopK(index, index, words, k, mode);
        const std::string label =
            "seed=" + std::to_string(seed) + " trial=" +
            std::to_string(trial) + " k=" + std::to_string(k) +
            (mode == QueryMode::kConjunctive ? " conj" : " disj");
        ExpectBitIdentical(fast, exact, label);
        // Work accounting is conserved: the pruned scorer charges
        // exactly the postings it did not skip.
        EXPECT_EQ(fast.postings_scanned + fast.postings_skipped,
                  exact.postings_scanned)
            << label;
        EXPECT_EQ(exact.postings_skipped, 0u) << label;
      }
    }
  }
}

TEST(PrunedTopKProperty, WorkerCountNeverChangesResultsOrCounters) {
  // The fixed-partition decomposition promises: hits, scores, and every
  // work counter are a function of the catalog and the query, never of
  // the pool size (or its absence).
  const QueryEngine engine;  // Default strategy: kMaxScore.
  const size_t vocab = 32;
  ScoredIndex index;
  BuildCatalog(7, 250, vocab, &index);
  Random rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    const std::vector<std::string> words = RandomQuery(&rng, vocab);
    const size_t k = 1 + rng.Uniform(8);
    for (const QueryMode mode :
         {QueryMode::kConjunctive, QueryMode::kDisjunctive}) {
      const RankedQuery serial =
          engine.TopK(index, index, words, k, mode, nullptr);
      for (const int workers : {1, 2, 4}) {
        SimClock clock;
        runtime::TaskPool pool(&clock, workers);
        const RankedQuery pooled =
            engine.TopK(index, index, words, k, mode, &pool);
        const std::string label =
            "trial=" + std::to_string(trial) + " workers=" +
            std::to_string(workers) +
            (mode == QueryMode::kConjunctive ? " conj" : " disj");
        ExpectBitIdentical(pooled, serial, label);
        EXPECT_EQ(pooled.terms_scored, serial.terms_scored) << label;
        EXPECT_EQ(pooled.postings_scanned, serial.postings_scanned)
            << label;
        EXPECT_EQ(pooled.postings_skipped, serial.postings_skipped)
            << label;
        EXPECT_EQ(pooled.heap_evictions, serial.heap_evictions) << label;
      }
    }
  }
}

TEST(PrunedTopKProperty, SelectiveDisjunctionsActuallySkipPostings) {
  // On a catalog where one query term is everywhere and another is
  // rare, a small k lets the rare term's scores saturate the heap and
  // the common list stop generating candidates: skipped must be a
  // substantial share, not a rounding error.
  ScoredIndex index;
  for (ObjectId id = 1; id <= 400; ++id) {
    AppendedContent content;
    content.text = "common ";
    if (id % 40 == 0) content.text += "rare rare rare ";
    index.Append(id, content, 0.0);
  }
  const QueryEngine engine;
  const RankedQuery got = engine.TopK(index, index, {"rare", "common"}, 5,
                                      QueryMode::kDisjunctive);
  ASSERT_EQ(got.hits.size(), 5u);
  EXPECT_GT(got.postings_skipped, 0u);
  // The pruned scan visits under half of what exhaustive scoring would.
  EXPECT_LT(got.postings_scanned * 2,
            got.postings_scanned + got.postings_skipped);
}

TEST(PrunedTopKProperty, AppendBuiltIndexMatchesAddBuiltStatistics) {
  // The incremental Append path and a delta-applied stats mirror must
  // agree with each other: a stats-only index fed only ApplyDelta
  // yields the same df / doc count / lengths the postings index holds,
  // so scoring against either gives identical results.
  ScoredIndex postings;
  ScoredIndex stats(/*stats_only=*/true);
  Random rng(5);
  for (ObjectId id = 1; id <= 120; ++id) {
    AppendedContent content;
    const size_t words = 3 + rng.Uniform(9);
    for (size_t w = 0; w < words; ++w) {
      content.text += Word(rng.Uniform(20)) + " ";
    }
    const IndexDelta delta = postings.Append(id, content, 0.0);
    stats.ApplyDelta(delta);
  }
  EXPECT_EQ(stats.stats().doc_count, postings.stats().doc_count);
  EXPECT_DOUBLE_EQ(stats.stats().total_length,
                   postings.stats().total_length);
  for (size_t w = 0; w < 20; ++w) {
    const std::string term = Word(w);
    EXPECT_EQ(stats.DocFreq(term), postings.DocFreq(term)) << term;
  }
  const QueryEngine engine;
  const RankedQuery local =
      engine.TopK(postings, postings, {"w3", "w15"}, 8,
                  QueryMode::kDisjunctive);
  const RankedQuery global =
      engine.TopK(postings, stats, {"w3", "w15"}, 8,
                  QueryMode::kDisjunctive);
  ExpectBitIdentical(global, local, "stats-mirror");
}

/// The brute-force model of one indexed document: its terms with their
/// text and voice tf, and its weighted length, each summed per
/// occurrence in the order the index folds them.
struct ModelDoc {
  std::map<std::string, std::pair<double, double>> tf;
  double length = 0;
};

/// Checks `index` (postings) and `mirror` (stats-only) against `model`
/// over the whole vocabulary, held and absent terms alike.
void ExpectMatchesModel(const ScoredIndex& index, const ScoredIndex& mirror,
                        const std::map<ObjectId, ModelDoc>& model,
                        double total_length, double mirror_total_length,
                        size_t vocab, const std::string& label) {
  for (const auto& [id, doc] : model) {
    EXPECT_EQ(index.DocLength(id), doc.length) << label << " id=" << id;
    EXPECT_EQ(mirror.DocLength(id), doc.length) << label << " id=" << id;
  }
  for (const ScoredIndex* ix : {&index, &mirror}) {
    EXPECT_EQ(ix->stats().doc_count, model.size()) << label;
  }
  // Exact: the model adds and subtracts in each index's own order (the
  // mirror adds an append's length as one delta, so it rounds apart).
  EXPECT_EQ(index.stats().total_length, total_length) << label;
  EXPECT_EQ(mirror.stats().total_length, mirror_total_length) << label;
  size_t held = 0;
  for (size_t w = 0; w < vocab; ++w) {
    const std::string term = Word(w);
    const std::string at = label + " term=" + term;
    std::map<ObjectId, double> holders;
    for (const auto& [id, doc] : model) {
      const auto it = doc.tf.find(term);
      if (it != doc.tf.end()) {
        holders[id] = it->second.first + it->second.second;
      }
    }
    if (!holders.empty()) ++held;
    EXPECT_EQ(index.DocFreq(term), holders.size()) << at;
    EXPECT_EQ(mirror.DocFreq(term), holders.size()) << at;
    const ScoredIndex::PostingMap& postings = index.Postings(term);
    ASSERT_EQ(postings.size(), holders.size()) << at;
    double max_tf = 0;
    auto holder = holders.begin();
    for (const auto& [id, posting] : postings) {
      EXPECT_EQ(id, holder->first) << at;
      EXPECT_EQ(posting.tf(), holder->second) << at << " id=" << id;
      EXPECT_LE(index.MinDocLen(term), index.DocLength(id))
          << at << " id=" << id;
      max_tf = std::max(max_tf, posting.tf());
      ++holder;
    }
    EXPECT_EQ(index.MaxTf(term), max_tf) << at;
    if (holders.empty()) {
      EXPECT_EQ(index.MinDocLen(term), 0.0) << at;
    }
    EXPECT_TRUE(mirror.Postings(term).empty()) << at;
    EXPECT_EQ(mirror.MaxTf(term), 0.0) << at;
    EXPECT_EQ(mirror.MinDocLen(term), 0.0) << at;
  }
  EXPECT_EQ(index.vocabulary_size(), held) << label;
  EXPECT_EQ(mirror.vocabulary_size(), held) << label;
}

TEST(PrunedTopKProperty, IndexMatchesBruteForceModelUnderReAddsAndAppends) {
  // Seeded random interleavings of Add (fresh ids and re-adds, which
  // drop the words the new version lacks), Append (new and existing
  // ids) and Remove on a postings index, mirrored into a stats-only
  // index the way the ShardRouter keeps one: Add as Add, Append as
  // ApplyDelta of its delta. After every step both must agree with a
  // plain model, and pruned top-k with exhaustive top-k. A small
  // vocabulary makes words repeat inside a document, in text and voice.
  constexpr size_t kVocab = 8;
  // Voice weight 0.3 is not exact in binary, so the model's sums match
  // the index's bit for bit only when both add per occurrence in the
  // same order: text words, then voice words.
  constexpr double kVoice = 0.3;
  const QueryEngine exhaustive({}, ScoringStrategy::kExhaustive);
  const QueryEngine pruned({}, ScoringStrategy::kMaxScore);
  for (const uint64_t seed : {3u, 17u, 2024u}) {
    ScoredIndex index;
    ScoredIndex mirror(/*stats_only=*/true);
    std::map<ObjectId, ModelDoc> model;
    double total_length = 0;
    double mirror_total_length = 0;
    ObjectId next_id = 1;
    Random rng(seed);
    auto random_words = [&rng] {
      std::vector<std::string> words(rng.Uniform(7));
      for (std::string& word : words) {
        const size_t pick =
            (rng.Uniform(kVocab) * rng.Uniform(kVocab)) / kVocab;
        word = Word(pick);
      }
      return words;
    };
    for (int step = 0; step < 150; ++step) {
      const uint64_t op = rng.Uniform(10);
      ObjectId id = next_id;
      if (!model.empty() && (op == 9 || rng.Uniform(2) == 0)) {
        id = std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                          rng.Uniform(model.size())))
                 ->first;
      } else {
        ++next_id;
      }
      std::string op_name;
      if (op == 9 && model.count(id) > 0) {
        op_name = "remove";
        index.Remove(id);
        mirror.Remove(id);
        total_length -= model[id].length;
        mirror_total_length -= model[id].length;
        model.erase(id);
      } else {
        const std::vector<std::string> text_words = random_words();
        std::vector<voice::WordAlignment> voice_words;
        for (std::string& word : random_words()) {
          voice::WordAlignment alignment;
          alignment.word = std::move(word);
          voice_words.push_back(std::move(alignment));
        }
        std::string text;
        for (const std::string& word : text_words) text += word + " ";
        ModelDoc& doc = model[id];
        // Terms new to the document, in first-occurrence order.
        std::vector<std::string> new_terms;
        if (op < 5) {
          op_name = "add";
          object::MultimediaObject obj(id);
          text::Document body;
          body.AppendText(text);
          ASSERT_TRUE(obj.SetTextPart(std::move(body)).ok());
          voice::VoiceTrack track;
          track.words = voice_words;
          ASSERT_TRUE(
              obj.SetVoicePart(voice::VoiceDocument(std::move(track))).ok());
          index.Add(obj, kVoice);
          mirror.Add(obj, kVoice);
          total_length -= doc.length;
          mirror_total_length -= doc.length;
          doc = {};
        }
        auto fold = [&](const std::string& word, double text_weight,
                        double voice_weight) {
          const auto [it, fresh] = doc.tf.try_emplace(word);
          if (fresh) new_terms.push_back(word);
          it->second.first += text_weight;
          it->second.second += voice_weight;
          doc.length += text_weight + voice_weight;
          total_length += text_weight + voice_weight;
          if (op < 5) mirror_total_length += text_weight + voice_weight;
        };
        // The index folds text words first, then voice words.
        for (const std::string& word : text_words) fold(word, 1.0, 0.0);
        for (const voice::WordAlignment& word : voice_words) {
          fold(word.word, 0.0, kVoice);
        }
        if (op >= 5) {
          op_name = "append";
          AppendedContent content;
          content.text = text;
          content.voice_words = voice_words;
          const IndexDelta delta = index.Append(id, content, kVoice);
          EXPECT_EQ(delta.new_terms, new_terms) << "step " << step;
          mirror.ApplyDelta(delta);
          mirror_total_length += delta.length_delta;
        }
      }
      const std::string label = "seed=" + std::to_string(seed) +
                                " step=" + std::to_string(step) + " " +
                                op_name + " id=" + std::to_string(id);
      ExpectMatchesModel(index, mirror, model, total_length,
                         mirror_total_length, kVocab, label);
      const std::vector<std::string> words = RandomQuery(&rng, kVocab);
      const size_t k = 1 + rng.Uniform(6);
      for (const QueryMode mode :
           {QueryMode::kConjunctive, QueryMode::kDisjunctive}) {
        ExpectBitIdentical(
            pruned.TopK(index, mirror, words, k, mode),
            exhaustive.TopK(index, mirror, words, k, mode),
            label + (mode == QueryMode::kConjunctive ? " conj" : " disj"));
      }
    }
  }
}

}  // namespace
}  // namespace minos::query
