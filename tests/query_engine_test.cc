// QueryEngine: all four query types, result caching, micro-batching,
// admission control, concurrent mixed-type queries, and hot reload with
// zero in-flight failures. Runs on a hand-built two-topic model so the
// suite stays fast; ci.sh re-runs it under TSan.

#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/model_binary.h"
#include "embed/embedding.h"
#include "math/distributions.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recipe/dataset.h"
#include "recipe/ingredient.h"
#include "serve/snapshot.h"

namespace texrheo::serve {
namespace {

math::Gaussian MakeGaussian(double mean, size_t dim) {
  auto g = math::Gaussian::FromPrecision(math::Vector(dim, mean),
                                         math::Matrix::Identity(dim, 4.0));
  EXPECT_TRUE(g.ok());
  return *g;
}

/// Topic 0: hard, gel features near 2. Topic 1: elastic, features near 6.
core::ModelSnapshot TinyModel() {
  core::ModelSnapshot model;
  model.vocab.Add("katai");
  model.vocab.Add("purupuru");
  model.vocab.Add("fuwafuwa");
  model.vocab.Add("zzz-not-a-texture-word");
  model.estimates.phi = {{0.7, 0.1, 0.1, 0.1}, {0.05, 0.75, 0.1, 0.1}};
  model.estimates.gel_topics = {MakeGaussian(2.0, 3), MakeGaussian(6.0, 3)};
  model.estimates.emulsion_topics = {MakeGaussian(1.0, 6),
                                     MakeGaussian(3.0, 6)};
  model.estimates.topic_recipe_count = {3, 3};
  return model;
}

std::shared_ptr<const ServingSnapshot> TinySnapshot(
    const std::string& label = "tiny") {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), label);
  EXPECT_TRUE(snapshot.ok());
  return *snapshot;
}

/// Six documents, three per topic (by gel feature), with emulsion
/// concentrations at increasing distance from {0.1 x6}.
recipe::Dataset TinyCorpus() {
  recipe::Dataset ds;
  ds.term_vocab.Add("katai");
  for (int i = 0; i < 6; ++i) {
    recipe::Document doc;
    doc.recipe_index = static_cast<size_t>(i);
    doc.term_ids = {0};
    doc.gel_feature = math::Vector(3, i < 3 ? 2.0 : 6.0);
    doc.gel_concentration = math::Vector(3, 0.01);
    doc.emulsion_feature = math::Vector(6, 1.0);
    doc.emulsion_concentration = math::Vector(6, 0.1 + 0.05 * (i % 3));
    ds.documents.push_back(std::move(doc));
  }
  return ds;
}

QueryEngineConfig FastConfig() {
  QueryEngineConfig config;
  config.fold_in_sweeps = 10;
  config.batch_linger_micros = 0;  // Tests shouldn't sleep.
  return config;
}

TextureQuery HardQuery() {
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.texture_terms = {"katai", "katai"};
  return query;
}

TEST(QueryEngineTest, CreateValidatesConfig) {
  auto corpus = TinyCorpus();
  QueryEngineConfig bad = FastConfig();
  bad.fold_in_sweeps = 0;
  EXPECT_FALSE(QueryEngine::Create(bad, TinySnapshot(), &corpus).ok());
  bad = FastConfig();
  bad.cache_quantum = 0.0;
  EXPECT_FALSE(QueryEngine::Create(bad, TinySnapshot(), &corpus).ok());
  bad = FastConfig();
  bad.alpha = -1.0;
  EXPECT_FALSE(QueryEngine::Create(bad, TinySnapshot(), &corpus).ok());
  EXPECT_FALSE(QueryEngine::Create(FastConfig(), nullptr, &corpus).ok());
}

TEST(QueryEngineTest, PredictTextureAnswersAndCaches) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto first = (*engine)->PredictTexture(HardQuery());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_cache);
  ASSERT_EQ(first->theta.size(), 2u);
  EXPECT_NEAR(first->theta[0] + first->theta[1], 1.0, 1e-9);
  EXPECT_FALSE(first->top_terms.empty());
  EXPECT_NE(first->model_fingerprint, 0u);

  auto second = (*engine)->PredictTexture(HardQuery());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->theta, first->theta);
  EXPECT_EQ(second->topic, first->topic);

  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.batcher.submitted, 1u);  // Only the miss folded in.
  EXPECT_EQ(stats.predict.count, 2u);
}

TEST(QueryEngineTest, CacheKeyIsIngredientOrderIndependent) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  auto a = QueryFromIngredients({{"gelatin", 0.01}, {"milk", 0.2}},
                                {"katai", "purupuru"});
  auto b = QueryFromIngredients({{"milk", 0.2}, {"gelatin", 0.01}},
                                {"purupuru", "katai"});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*engine)->PredictTexture(*a).ok());
  auto hit = (*engine)->PredictTexture(*b);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);
}

TEST(QueryEngineTest, UnknownTermsAreCountedNotFatal) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  TextureQuery query = HardQuery();
  query.texture_terms = {"katai", "not-in-vocab"};
  ASSERT_TRUE((*engine)->PredictTexture(query).ok());
  EXPECT_EQ((*engine)->GetStats().unknown_terms, 1u);
}

TEST(QueryEngineTest, PredictTextureRejectsBadDimensions) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(2, 0.01);  // Must be 3.
  EXPECT_FALSE((*engine)->PredictTexture(query).ok());
  query.gel_concentration = math::Vector(3, 2.0);  // Ratio > 1.
  EXPECT_FALSE((*engine)->PredictTexture(query).ok());
}

TEST(QueryEngineTest, NearestRheologyRanksAscendingAndChecksRange) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  auto matches = (*engine)->NearestRheology(0);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  ASSERT_GT(matches->size(), 1u);
  for (size_t i = 1; i < matches->size(); ++i) {
    EXPECT_LE((*matches)[i - 1].divergence, (*matches)[i].divergence);
  }
  EXPECT_FALSE((*engine)->NearestRheology(-1).ok());
  EXPECT_FALSE((*engine)->NearestRheology(2).ok());
}

TEST(QueryEngineTest, NearestRheologyHonoursMethodOverride) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  core::LinkageOptions euclid;
  euclid.method = core::LinkageMethod::kEuclidean;
  auto kl = (*engine)->NearestRheology(0);
  auto eu = (*engine)->NearestRheology(0, &euclid);
  ASSERT_TRUE(kl.ok() && eu.ok());
  // Different scoring functions produce different divergence values.
  EXPECT_NE((*kl)[0].divergence, (*eu)[0].divergence);
}

TEST(QueryEngineTest, SimilarRecipesStaysInTopicAndRanks) {
  auto corpus = TinyCorpus();
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.emulsion_concentration = math::Vector(6, 0.1);
  auto result = (*engine)->SimilarRecipes(query, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Feature-only query near exp(-2): lands in a topic with 3 documents.
  EXPECT_EQ(result->recipes.size(), 3u);
  for (const SimilarRecipe& r : result->recipes) {
    EXPECT_EQ(r.recipe_index < 3, result->topic == 0);
  }
  for (size_t i = 1; i < result->recipes.size(); ++i) {
    EXPECT_LE(result->recipes[i - 1].divergence,
              result->recipes[i].divergence);
  }
  // top_n truncates.
  auto top1 = (*engine)->SimilarRecipes(query, 1);
  ASSERT_TRUE(top1.ok());
  EXPECT_EQ(top1->recipes.size(), 1u);
}

/// Vocab-aligned with TinyModel (4 rows): the three dictionary words get
/// well-separated directions, the non-texture word a distinct fourth.
embed::EmbeddingTable TinyEmbeddingTable() {
  embed::EmbeddingTable table;
  table.dim = 4;
  table.vectors = {
      0.9f,  0.1f, 0.0f,  0.1f,   // katai
      0.1f,  0.9f, 0.1f,  0.0f,   // purupuru
      0.0f,  0.1f, 0.9f,  0.1f,   // fuwafuwa
      -0.5f, 0.2f, -0.5f, 0.6f,   // zzz-not-a-texture-word
  };
  table.RecomputeNorms();
  return table;
}

std::shared_ptr<const ServingSnapshot> TinyEmbedSnapshot(
    const std::string& label = "tiny-embed") {
  auto snapshot =
      ServingSnapshot::FromModel(TinyModel(), label, TinyEmbeddingTable());
  EXPECT_TRUE(snapshot.ok());
  return *snapshot;
}

/// TinyCorpus with per-document term bags that actually differ, so the
/// embed and lexical backends have something to disagree about.
recipe::Dataset EmbedCorpus() {
  recipe::Dataset ds = TinyCorpus();
  const std::vector<std::vector<int32_t>> bags = {
      {0}, {0, 1}, {1}, {2}, {1, 2}, {0, 2}};
  for (size_t i = 0; i < ds.documents.size(); ++i) {
    ds.documents[i].term_ids = bags[i];
  }
  return ds;
}

TEST(QueryEngineTest, EmbedAndFusedModesRequireEmbeddings) {
  auto corpus = EmbedCorpus();
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.texture_terms = {"katai"};
  for (SimilarityMode mode :
       {SimilarityMode::kEmbed, SimilarityMode::kFused}) {
    auto result =
        (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0, mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << result.status().ToString();
  }
  // kl and lexical stay available on an embedding-less snapshot.
  for (SimilarityMode mode : {SimilarityMode::kKl, SimilarityMode::kLexical}) {
    EXPECT_TRUE(
        (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0, mode).ok());
  }
}

TEST(QueryEngineTest, EmbedModeNeedsAnInVocabularyTerm) {
  auto corpus = EmbedCorpus();
  auto engine =
      QueryEngine::Create(FastConfig(), TinyEmbedSnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  auto no_terms = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                            SimilarityMode::kEmbed);
  ASSERT_FALSE(no_terms.ok());
  EXPECT_EQ(no_terms.status().code(), StatusCode::kInvalidArgument);
  // Out-of-vocabulary terms resolve to nothing: same rejection.
  query.texture_terms = {"no-such-texture-word"};
  auto unknown = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                           SimilarityMode::kEmbed);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // fused degrades gracefully: no terms just means kl carries the blend.
  query.texture_terms = {};
  EXPECT_TRUE((*engine)
                  ->SimilarRecipes(query, 5, kNoDeadline, 0,
                                   SimilarityMode::kFused)
                  .ok());
}

TEST(QueryEngineTest, AllSimilarityModesRankWithinTopicAndCount) {
  auto corpus = EmbedCorpus();
  auto engine =
      QueryEngine::Create(FastConfig(), TinyEmbedSnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.emulsion_concentration = math::Vector(6, 0.1);
  query.texture_terms = {"katai", "purupuru"};
  for (SimilarityMode mode :
       {SimilarityMode::kKl, SimilarityMode::kEmbed, SimilarityMode::kLexical,
        SimilarityMode::kFused}) {
    auto result = (*engine)->SimilarRecipes(query, 10, kNoDeadline, 0, mode);
    ASSERT_TRUE(result.ok()) << SimilarityModeName(mode) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->mode, mode);
    ASSERT_FALSE(result->recipes.empty());
    for (const SimilarRecipe& r : result->recipes) {
      EXPECT_EQ(r.recipe_index < 3, result->topic == 0)
          << SimilarityModeName(mode);
    }
    for (size_t i = 1; i < result->recipes.size(); ++i) {
      EXPECT_LE(result->recipes[i - 1].divergence,
                result->recipes[i].divergence)
          << SimilarityModeName(mode);
    }
    // Per-mode counter ticked exactly for this mode's traffic.
    EXPECT_EQ((*engine)->metrics()->TakeSnapshot().CounterValue(
                  std::string("serve.similar.mode.") +
                  SimilarityModeName(mode)),
              1u);
  }
}

TEST(QueryEngineTest, SimilarCacheIsPerModeAndFlushedOnReload) {
  auto corpus = EmbedCorpus();
  auto engine =
      QueryEngine::Create(FastConfig(), TinyEmbedSnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.emulsion_concentration = math::Vector(6, 0.1);
  auto first = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                         SimilarityMode::kKl);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  auto again = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                         SimilarityMode::kKl);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  // A kl answer can never satisfy a lexical probe for the same recipe.
  auto lexical = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                           SimilarityMode::kLexical);
  ASSERT_TRUE(lexical.ok());
  EXPECT_FALSE(lexical->from_cache);
  // Nor a different top_n under the same mode.
  auto wider = (*engine)->SimilarRecipes(query, 2, kNoDeadline, 0,
                                         SimilarityMode::kKl);
  ASSERT_TRUE(wider.ok());
  EXPECT_FALSE(wider->from_cache);
  // Reload flushes the similar cache alongside the predict cache.
  ASSERT_TRUE((*engine)->Reload(TinyEmbedSnapshot("v2")).ok());
  auto after = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                         SimilarityMode::kKl);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);
}

TEST(QueryEngineTest, MmapEmbeddingAnswersMatchHeapByteForByte) {
  // The acceptance bar for the zero-copy sections: an engine serving
  // embeddings straight out of the mapping must answer every mode exactly
  // as the heap-table engine does. Both engines are fresh (fold-in stream
  // sequence 0), so even the sampled topic assignment paths align.
  embed::EmbeddingTable table = TinyEmbeddingTable();
  std::string base = testing::TempDir() + "/qe_embed_pack";
  ASSERT_TRUE(
      core::WriteModelBinary(TinyModel(), base, FileOps::Real(), &table)
          .ok());
  auto heap_snapshot =
      ServingSnapshot::FromModel(TinyModel(), "heap", std::move(table));
  auto mmap_snapshot = ServingSnapshot::FromFile(base + ".idx");
  ASSERT_TRUE(heap_snapshot.ok() && mmap_snapshot.ok())
      << mmap_snapshot.status().ToString();
  auto heap_corpus = EmbedCorpus();
  auto mmap_corpus = EmbedCorpus();
  auto heap_engine =
      QueryEngine::Create(FastConfig(), *heap_snapshot, &heap_corpus);
  auto mmap_engine =
      QueryEngine::Create(FastConfig(), *mmap_snapshot, &mmap_corpus);
  ASSERT_TRUE(heap_engine.ok() && mmap_engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.emulsion_concentration = math::Vector(6, 0.1);
  query.texture_terms = {"katai", "purupuru"};
  for (SimilarityMode mode :
       {SimilarityMode::kKl, SimilarityMode::kEmbed, SimilarityMode::kLexical,
        SimilarityMode::kFused}) {
    auto heap_result =
        (*heap_engine)->SimilarRecipes(query, 10, kNoDeadline, 0, mode);
    auto mmap_result =
        (*mmap_engine)->SimilarRecipes(query, 10, kNoDeadline, 0, mode);
    ASSERT_TRUE(heap_result.ok() && mmap_result.ok())
        << SimilarityModeName(mode);
    EXPECT_EQ(heap_result->topic, mmap_result->topic);
    ASSERT_EQ(heap_result->recipes.size(), mmap_result->recipes.size())
        << SimilarityModeName(mode);
    for (size_t i = 0; i < heap_result->recipes.size(); ++i) {
      EXPECT_EQ(heap_result->recipes[i].recipe_index,
                mmap_result->recipes[i].recipe_index)
          << SimilarityModeName(mode) << " rank " << i;
      // Bit-identical, not merely close: both paths read the same float
      // bytes and run the same double arithmetic over them.
      EXPECT_EQ(heap_result->recipes[i].divergence,
                mmap_result->recipes[i].divergence)
          << SimilarityModeName(mode) << " rank " << i;
    }
  }
}

TEST(QueryEngineTest, SimilarRecipesRequiresCorpus) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  auto result = (*engine)->SimilarRecipes(query);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryEngineTest, TopicCardSummarizesTopic) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  auto card = (*engine)->TopicCard(0);
  ASSERT_TRUE(card.ok()) << card.status().ToString();
  EXPECT_EQ(card->topic, 0);
  EXPECT_EQ(card->recipe_count, 3);
  ASSERT_FALSE(card->top_terms.empty());
  EXPECT_EQ(card->top_terms[0].first, "katai");
  EXPECT_GT(card->categories.hard, 0.5);
  // Gaussian mean (feature space 2.0) maps back to exp(-2) concentration.
  ASSERT_EQ(card->gel_mean_concentration.size(), 3u);
  EXPECT_NEAR(card->gel_mean_concentration[0], std::exp(-2.0), 1e-6);
  EXPECT_FALSE((*engine)->TopicCard(7).ok());
}

TEST(QueryEngineTest, ReloadSwapsModelAndFlushesCache) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  auto before = (*engine)->PredictTexture(HardQuery());
  ASSERT_TRUE(before.ok());

  core::ModelSnapshot changed = TinyModel();
  changed.estimates.phi[0] = {0.1, 0.1, 0.7, 0.1};  // Now fuwafuwa-heavy.
  changed.estimates.phi[1] = {0.1, 0.1, 0.2, 0.6};
  auto new_snapshot = ServingSnapshot::FromModel(std::move(changed), "v2");
  ASSERT_TRUE(new_snapshot.ok());
  ASSERT_TRUE((*engine)->Reload(*new_snapshot).ok());

  EXPECT_EQ((*engine)->snapshot()->fingerprint(),
            (*new_snapshot)->fingerprint());
  auto after = (*engine)->PredictTexture(HardQuery());
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);  // Cache was flushed.
  EXPECT_EQ(after->model_fingerprint, (*new_snapshot)->fingerprint());
  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.model_fingerprint, (*new_snapshot)->fingerprint());
  EXPECT_FALSE((*engine)->Reload(nullptr).ok());
}

TEST(QueryEngineTest, StatszMentionsEverySection) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->PredictTexture(HardQuery()).ok());
  std::string statsz = (*engine)->Statsz();
  for (const char* section :
       {"model:", "cache:", "batcher:", "errors:", "predict_texture:",
        "nearest_rheology:", "similar_recipes:", "topic_card:"}) {
    EXPECT_NE(statsz.find(section), std::string::npos) << section;
  }
}

TEST(QueryEngineTest, AdmissionControlShedsWithUnavailable) {
  // max_queue 1 with a batcher throttled by a slow fold-in: flood with
  // distinct queries from several threads and require at least one clean
  // Unavailable shed plus zero crashes.
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;  // Every query must fold in.
  config.max_queue = 1;
  config.batch_max_size = 1;
  config.fold_in_sweeps = 2000;  // Slow enough to back up the queue.
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        TextureQuery query;
        query.texture_terms = {"katai", "purupuru", "katai", "fuwafuwa"};
        query.gel_concentration = math::Vector(3);
        query.gel_concentration[0] = 0.001 * (t * 8 + i + 1);
        auto result = (*engine)->PredictTexture(query);
        if (result.ok()) {
          ++ok;
        } else if (result.status().code() == StatusCode::kUnavailable) {
          ++shed;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(shed.load(), 0);
  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_EQ(stats.batcher.shed, static_cast<uint64_t>(shed.load()));
  EXPECT_EQ(stats.errors, static_cast<uint64_t>(shed.load()));
}

TEST(QueryEngineTest, ExpiredDeadlineIsShedBeforeFoldIn) {
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;  // Force the fold-in path.
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());

  // A deadline already in the past must be rejected at admission — it
  // never occupies a batch slot.
  Deadline expired = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(10);
  auto result = (*engine)->PredictTexture(HardQuery(), expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_GE(stats.batcher.deadline_expired, 1u);
  EXPECT_EQ(stats.batcher.jobs_processed, 0u);  // Never reached a batch.
}

TEST(QueryEngineTest, GenerousDeadlineAnswersNormally) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());

  auto with_deadline =
      (*engine)->PredictTexture(HardQuery(), DeadlineAfterMillis(60000));
  ASSERT_TRUE(with_deadline.ok()) << with_deadline.status().ToString();

  // Same query without a deadline: identical answer — the deadline only
  // gates admission, it never perturbs the fold-in arithmetic.
  auto fresh = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(fresh.ok());
  auto unlimited = (*fresh)->PredictTexture(HardQuery());
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(with_deadline->theta, unlimited->theta);
  EXPECT_EQ(with_deadline->topic, unlimited->topic);
  EXPECT_EQ((*engine)->GetStats().batcher.deadline_expired, 0u);
}

TEST(QueryEngineTest, SimilarRecipesHonorsDeadline) {
  auto corpus = TinyCorpus();
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  Deadline expired = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(10);
  // Terms force the fold-in path (feature-only queries are placed by the
  // gel Gaussian directly and never enter the batcher).
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.texture_terms = {"katai"};
  auto result = (*engine)->SimilarRecipes(query, 3, expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryEngineTest, ConcurrentBatchedFoldInsMatchSerialResults) {
  // Determinism across batch layouts: each query's RNG stream is keyed on
  // its canonical query key, so a query's theta must not depend on how the
  // dispatcher grouped the jobs or in which order the threads raced in.
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;
  config.batch_linger_micros = 500;  // Encourage multi-job batches.
  config.batch_max_size = 8;
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());

  std::vector<TextureQuery> queries(8);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].gel_concentration = math::Vector(3, 0.001 * (i + 1));
    queries[i].texture_terms = {"katai", "purupuru"};
  }
  std::vector<std::vector<double>> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto p = (*engine)->PredictTexture(queries[i]);
    ASSERT_TRUE(p.ok());
    serial[i] = p->theta;
  }
  auto engine2 = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine2.ok());
  std::vector<std::vector<double>> concurrent(queries.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < queries.size(); ++i) {
    threads.emplace_back([&, i] {
      auto p = (*engine2)->PredictTexture(queries[i]);
      if (p.ok()) concurrent[i] = p->theta;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(serial, concurrent);
  EXPECT_GE((*engine2)->GetStats().batcher.max_batch_size, 1u);
}

TEST(QueryEngineTest, RecomputedMissEqualsTheHitItReplaces) {
  // With the cache off every repeat is a fresh fold-in; it must reproduce
  // the first answer exactly, term order included.
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.004);
  query.texture_terms = {"purupuru", "katai", "katai"};
  auto first = (*engine)->PredictTexture(query);
  ASSERT_TRUE(first.ok());
  query.texture_terms = {"katai", "purupuru", "katai"};
  for (int i = 0; i < 3; ++i) {
    auto again = (*engine)->PredictTexture(query);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->from_cache);
    EXPECT_EQ(again->theta, first->theta);
  }
}

TEST(QueryEngineTest, DeltaFoldsRunInlineAndMatchPredict) {
  // Streamed records never enter the batcher, and a record lands in the
  // topic a PREDICT of its content reports.
  QueryEngineConfig config = FastConfig();
  config.batch_linger_micros = 200;
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  std::vector<TextureQuery> records(12);
  std::vector<int> topics;
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].gel_concentration = math::Vector(3, 0.001 * (i + 1));
    records[i].texture_terms =
        i % 2 == 0 ? std::vector<std::string>{"katai"}
                   : std::vector<std::string>{"purupuru", "katai"};
    auto topic = (*engine)->FoldInDelta(records[i], i + 1);
    ASSERT_TRUE(topic.ok()) << "record " << i;
    topics.push_back(*topic);
  }
  TextureQuery bad;
  bad.gel_concentration = math::Vector(2, 0.01);  // Wrong dimension.
  EXPECT_EQ((*engine)->FoldInDelta(bad, 99).status().code(),
            StatusCode::kInvalidArgument);
  DeltaStats delta = (*engine)->GetDeltaStats();
  EXPECT_EQ(delta.delta_docs, records.size());
  EXPECT_EQ(delta.folded, records.size());
  EXPECT_EQ((*engine)->GetStats().batcher.submitted, 0u);

  for (size_t i = 0; i < records.size(); ++i) {
    auto predicted = (*engine)->PredictTexture(records[i]);
    ASSERT_TRUE(predicted.ok());
    EXPECT_EQ(predicted->topic, topics[i]) << "record " << i;
  }

  Deadline expired =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto late = (*engine)->FoldInDelta(records[0], 1, expired);
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
}

/// Reads 0, and runs `hook` on its `fire_at`-th reading since `reads` was
/// last reset: a seam for acting at a chosen span boundary.
class HookClock : public obs::Clock {
 public:
  int64_t NowMicros() const override {
    if (++reads == fire_at && hook) hook();
    return 0;
  }
  std::function<void()> hook;
  int fire_at = 0;
  mutable int reads = 0;
};

TEST(QueryEngineTest, DeltaFoldOvertakenByReloadIsDropped) {
  // A Reload that lands after a record's fold but before its append clears
  // the delta the record was placed for, so the record must not outlive it.
  HookClock clock;
  obs::Tracer tracer(&clock);
  QueryEngineConfig config = FastConfig();
  config.tracer = &tracer;
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  TextureQuery query = HardQuery();

  // FoldInDelta's delta_fold span reads the clock when it starts and when
  // it ends; it ends after the fold and before the append.
  clock.reads = 0;
  clock.fire_at = 2;
  clock.hook = [&] { EXPECT_TRUE((*engine)->Reload(TinySnapshot()).ok()); };
  auto overtaken = (*engine)->FoldInDelta(query, 1);
  EXPECT_EQ(overtaken.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*engine)->GetStats().reloads, 1u);
  DeltaStats delta = (*engine)->GetDeltaStats();
  EXPECT_EQ(delta.delta_docs, 0u);
  EXPECT_EQ(delta.folded, 0u);

  clock.hook = nullptr;
  auto next = (*engine)->FoldInDelta(query, 2);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*engine)->GetDeltaStats().delta_docs, 1u);
}

TEST(QueryEngineTest, MixedQueryTypesRaceSafely) {
  auto corpus = TinyCorpus();
  QueryEngineConfig config = FastConfig();
  config.num_threads = 2;
  auto engine = QueryEngine::Create(config, TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        bool ok = true;
        switch ((t + i) % 4) {
          case 0: {
            TextureQuery query;
            query.gel_concentration = math::Vector(3);
            query.gel_concentration[0] = 0.001 * ((i % 5) + 1);
            ok = (*engine)->PredictTexture(query).ok();
            break;
          }
          case 1:
            ok = (*engine)->NearestRheology(i % 2).ok();
            break;
          case 2: {
            TextureQuery query;
            query.gel_concentration = math::Vector(3, 0.01);
            query.emulsion_concentration = math::Vector(6, 0.1);
            ok = (*engine)->SimilarRecipes(query).ok();
            break;
          }
          case 3:
            ok = (*engine)->TopicCard(i % 2).ok();
            break;
        }
        if (!ok) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_EQ(stats.predict.count + stats.nearest.count + stats.similar.count +
                stats.topic_card.count,
            6u * 20u);
}

TEST(QueryEngineTest, ReloadUnderLoadFailsZeroQueries) {
  // The acceptance criterion: hot reload swaps models while queries are in
  // flight, and not a single query fails because of it.
  auto corpus = TinyCorpus();
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;  // Force every predict through fold-in.
  config.fold_in_sweeps = 30;
  auto engine = QueryEngine::Create(config, TinySnapshot("v1"), &corpus);
  ASSERT_TRUE(engine.ok());

  auto alt_model = [] {
    core::ModelSnapshot model = TinyModel();
    model.estimates.phi[0] = {0.4, 0.2, 0.2, 0.2};
    return model;
  };
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        TextureQuery query;
        query.gel_concentration = math::Vector(3);
        query.gel_concentration[0] = 0.001 * ((i + t) % 20 + 1);
        auto result = (*engine)->PredictTexture(query);
        // Shedding is admission control, not a reload failure; anything
        // else non-OK is.
        if (result.ok()) {
          ++served;
        } else if (result.status().code() != StatusCode::kUnavailable) {
          ++failures;
        }
      }
    });
  }
  // Hammer reloads while the clients run.
  for (int r = 0; r < 20; ++r) {
    auto snapshot = ServingSnapshot::FromModel(
        r % 2 == 0 ? alt_model() : TinyModel(),
        "reload-" + std::to_string(r));
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE((*engine)->Reload(*snapshot).ok());
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ((*engine)->GetStats().reloads, 20u);
}

TEST(QueryEngineTest, ReloadFromPackUnderLoadFailsZeroQueries) {
  // Same acceptance bar as ReloadUnderLoadFailsZeroQueries, but the reload
  // path is the mmap-backed binary pair: each swap maps a new .dat and the
  // previous mapping may only be released once its last in-flight query
  // finishes. TSan (ci.sh) watches this for use-after-unmap.
  std::string base_a = testing::TempDir() + "/texrheo_qe_reload_a";
  std::string base_b = testing::TempDir() + "/texrheo_qe_reload_b";
  core::ModelSnapshot alt = TinyModel();
  alt.estimates.phi[0] = {0.4, 0.2, 0.2, 0.2};
  ASSERT_TRUE(core::WriteModelBinary(TinyModel(), base_a).ok());
  ASSERT_TRUE(core::WriteModelBinary(alt, base_b).ok());

  auto corpus = TinyCorpus();
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;  // Force every predict through fold-in.
  config.fold_in_sweeps = 30;
  auto engine = QueryEngine::Create(config, TinySnapshot("v1"), &corpus);
  ASSERT_TRUE(engine.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        TextureQuery query;
        query.gel_concentration = math::Vector(3);
        query.gel_concentration[0] = 0.001 * ((i + t) % 20 + 1);
        auto result = (*engine)->PredictTexture(query);
        if (result.ok()) {
          ++served;
        } else if (result.status().code() != StatusCode::kUnavailable) {
          ++failures;
        }
      }
    });
  }
  for (int r = 0; r < 20; ++r) {
    std::string idx = (r % 2 == 0 ? base_b : base_a) + ".idx";
    ASSERT_TRUE((*engine)->ReloadFromFile(idx).ok());
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ((*engine)->GetStats().reloads, 20u);
  // The published snapshot is the last binary reload, served off the map.
  auto expected = ServingSnapshot::FromFile(base_a + ".idx");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*engine)->GetStats().model_fingerprint,
            (*expected)->fingerprint());
}

TEST(QueryFromIngredientsTest, ResolvesAndAccumulates) {
  auto query = QueryFromIngredients(
      {{"gelatin", 0.01}, {"milk", 0.2}, {"gelatin", 0.005}}, {"katai"});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->gel_concentration.size(),
            static_cast<size_t>(recipe::kNumGelTypes));
  EXPECT_NEAR(query->gel_concentration[0], 0.015, 1e-12);  // Accumulated.
  EXPECT_EQ(query->texture_terms.size(), 1u);
}

TEST(QueryFromIngredientsTest, RejectsUnknownAndOutOfRange) {
  EXPECT_FALSE(QueryFromIngredients({{"unobtainium", 0.1}}).ok());
  EXPECT_FALSE(QueryFromIngredients({{"gelatin", 1.5}}).ok());
  EXPECT_FALSE(QueryFromIngredients({{"gelatin", -0.1}}).ok());
}

TEST(QueryFromIngredientsTest, IgnoresNonModelIngredients) {
  auto query = QueryFromIngredients({{"water", 0.9}, {"gelatin", 0.01}});
  ASSERT_TRUE(query.ok());
  double gel_total = 0.0;
  for (size_t i = 0; i < query->gel_concentration.size(); ++i) {
    gel_total += query->gel_concentration[i];
  }
  EXPECT_NEAR(gel_total, 0.01, 1e-12);  // Water contributed nothing.
}

}  // namespace
}  // namespace texrheo::serve
