// ServingSnapshot: structural validation, fingerprint semantics, pack and
// checkpoint loading, eq.-5 fold-in against point estimates (incl.
// determinism and thread safety of the const read path).

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include <atomic>

#include "core/checkpoint.h"
#include "core/joint_topic_model.h"
#include "core/model_binary.h"
#include "core/serialization.h"
#include "embed/embedding.h"
#include "math/distributions.h"
#include "recipe/dataset.h"
#include "util/rng.h"

namespace texrheo::serve {
namespace {

math::Gaussian MakeGaussian(double mean, size_t dim) {
  auto g = math::Gaussian::FromPrecision(math::Vector(dim, mean),
                                         math::Matrix::Identity(dim, 4.0));
  EXPECT_TRUE(g.ok());
  return *g;
}

/// Two well-separated topics over a 4-word vocabulary. Topic 0 is a "hard"
/// topic (katai-heavy, gel feature around 2); topic 1 is an "elastic" one
/// (purupuru-heavy, gel feature around 6).
core::ModelSnapshot TinyModel() {
  core::ModelSnapshot model;
  model.vocab.Add("katai");      // hard pole
  model.vocab.Add("purupuru");   // elastic pole
  model.vocab.Add("fuwafuwa");   // soft pole
  model.vocab.Add("zzz-not-a-texture-word");
  model.estimates.phi = {{0.7, 0.1, 0.1, 0.1}, {0.05, 0.75, 0.1, 0.1}};
  model.estimates.gel_topics = {MakeGaussian(2.0, 3), MakeGaussian(6.0, 3)};
  model.estimates.emulsion_topics = {MakeGaussian(1.0, 6),
                                     MakeGaussian(3.0, 6)};
  model.estimates.doc_topic = {0, 1, 1};
  model.estimates.topic_recipe_count = {1, 2};
  model.estimates.theta = {{0.9, 0.1}, {0.2, 0.8}, {0.1, 0.9}};
  return model;
}

TEST(ServingSnapshotTest, FromModelExposesModelAndSource) {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), "unit-test");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->num_topics(), 2);
  EXPECT_EQ((*snapshot)->vocab_size(), 4u);
  EXPECT_EQ((*snapshot)->source(), "unit-test");
  EXPECT_NE((*snapshot)->fingerprint(), 0u);
}

TEST(ServingSnapshotTest, FingerprintIsContentAddressed) {
  auto a = ServingSnapshot::FromModel(TinyModel(), "a");
  auto b = ServingSnapshot::FromModel(TinyModel(), "b");
  ASSERT_TRUE(a.ok() && b.ok());
  // Same model content, different source label: same fingerprint.
  EXPECT_EQ((*a)->fingerprint(), (*b)->fingerprint());

  core::ModelSnapshot changed = TinyModel();
  changed.estimates.phi[0][0] = 0.69;
  changed.estimates.phi[0][1] = 0.11;
  auto c = ServingSnapshot::FromModel(std::move(changed), "c");
  ASSERT_TRUE(c.ok());
  EXPECT_NE((*a)->fingerprint(), (*c)->fingerprint());

  // The Gaussians are part of the fingerprinted sections too.
  core::ModelSnapshot moved = TinyModel();
  moved.estimates.gel_topics[1] = MakeGaussian(6.5, 3);
  auto d = ServingSnapshot::FromModel(moved, "d");
  ASSERT_TRUE(d.ok());
  EXPECT_NE((*a)->fingerprint(), (*d)->fingerprint());
}

TEST(ServingSnapshotTest, RejectsStructurallyBrokenModels) {
  {
    core::ModelSnapshot model = TinyModel();
    model.estimates.phi.clear();  // No topics.
    EXPECT_FALSE(ServingSnapshot::FromModel(std::move(model), "x").ok());
  }
  {
    core::ModelSnapshot model = TinyModel();
    model.estimates.phi[1].pop_back();  // Width != vocab size.
    EXPECT_FALSE(ServingSnapshot::FromModel(std::move(model), "x").ok());
  }
  {
    core::ModelSnapshot model = TinyModel();
    model.estimates.phi[0][0] = -0.1;  // Negative probability.
    EXPECT_FALSE(ServingSnapshot::FromModel(std::move(model), "x").ok());
  }
  {
    core::ModelSnapshot model = TinyModel();
    model.estimates.gel_topics.pop_back();  // Gaussian count mismatch.
    EXPECT_FALSE(ServingSnapshot::FromModel(std::move(model), "x").ok());
  }
}

TEST(ServingSnapshotTest, TermSummariesClassifyByDictionaryPole) {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), "x");
  ASSERT_TRUE(snapshot.ok());
  const TopicTermSummary& hard_topic = (*snapshot)->term_summary(0);
  // Topic 0 puts 0.7 on "katai": hard must dominate and the unknown word's
  // 0.1 must land in `other`.
  EXPECT_GT(hard_topic.masses.hard, 0.5);
  EXPECT_NEAR(hard_topic.masses.other, 0.1, 1e-9);
  ASSERT_FALSE(hard_topic.top_terms.empty());
  EXPECT_EQ(hard_topic.top_terms[0].first, "katai");

  const TopicTermSummary& elastic_topic = (*snapshot)->term_summary(1);
  EXPECT_GT(elastic_topic.masses.elastic, 0.5);
  EXPECT_EQ(elastic_topic.top_terms[0].first, "purupuru");

  // Masses are a distribution over the whole vocabulary.
  const CategoryMasses& m = hard_topic.masses;
  EXPECT_NEAR(m.hard + m.soft + m.elastic + m.crumbly + m.sticky + m.dry +
                  m.other,
              1.0, 1e-9);
}

TEST(ServingSnapshotTest, FoldInThetaIsNormalizedAndTermSensitive) {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), "x");
  ASSERT_TRUE(snapshot.ok());
  // Features sit exactly on topic 1's mean; terms scream topic 0.
  math::Vector near_topic1(3, 6.0);
  Rng rng_a = Rng::ForStream(7, 1);
  auto hard_terms =
      (*snapshot)->FoldInTheta({0, 0, 0, 0}, near_topic1, 40, 0.3, rng_a);
  ASSERT_TRUE(hard_terms.ok()) << hard_terms.status().ToString();
  ASSERT_EQ(hard_terms->size(), 2u);
  double sum = (*hard_terms)[0] + (*hard_terms)[1];
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Four "katai" tokens against one feature observation: the term evidence
  // must pull substantial mass onto topic 0.
  EXPECT_GT((*hard_terms)[0], 0.3);

  Rng rng_b = Rng::ForStream(7, 2);
  auto no_terms = (*snapshot)->FoldInTheta({}, near_topic1, 40, 0.3, rng_b);
  ASSERT_TRUE(no_terms.ok());
  // Feature-only query on topic 1's mean: topic 1 dominates.
  EXPECT_GT((*no_terms)[1], 0.7);
}

TEST(ServingSnapshotTest, FoldInThetaIsDeterministicPerStream) {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), "x");
  ASSERT_TRUE(snapshot.ok());
  math::Vector feature(3, 4.0);
  Rng rng_a = Rng::ForStream(99, 5);
  Rng rng_b = Rng::ForStream(99, 5);
  auto a = (*snapshot)->FoldInTheta({0, 1}, feature, 25, 0.3, rng_a);
  auto b = (*snapshot)->FoldInTheta({0, 1}, feature, 25, 0.3, rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);  // Bit-identical: same stream, same sweep count.
}

TEST(ServingSnapshotTest, FoldInThetaRejectsBadArguments) {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), "x");
  ASSERT_TRUE(snapshot.ok());
  math::Vector feature(3, 4.0);
  Rng rng = Rng::ForStream(1, 1);
  EXPECT_FALSE((*snapshot)->FoldInTheta({99}, feature, 25, 0.3, rng).ok());
  EXPECT_FALSE((*snapshot)->FoldInTheta({0}, feature, 0, 0.3, rng).ok());
  EXPECT_FALSE((*snapshot)->FoldInTheta({0}, feature, 25, 0.0, rng).ok());
}

TEST(ServingSnapshotTest, InferTopicForFeaturesPicksNearestGaussian) {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), "x");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->InferTopicForFeatures(math::Vector(3, 2.0)), 0);
  EXPECT_EQ((*snapshot)->InferTopicForFeatures(math::Vector(3, 6.0)), 1);
}

TEST(ServingSnapshotTest, ConcurrentFoldInsAreSafeAndIndependent) {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), "x");
  ASSERT_TRUE(snapshot.ok());
  // Reference results computed serially, one per stream.
  std::vector<std::vector<double>> expected(8);
  for (int i = 0; i < 8; ++i) {
    Rng rng = Rng::ForStream(123, static_cast<uint64_t>(i));
    auto theta = (*snapshot)->FoldInTheta({0, 1}, math::Vector(3, 3.0), 20,
                                          0.3, rng);
    ASSERT_TRUE(theta.ok());
    expected[static_cast<size_t>(i)] = *theta;
  }
  // The same fold-ins, raced across threads against the shared const
  // snapshot (TSan leg of ci.sh watches this test).
  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      Rng rng = Rng::ForStream(123, static_cast<uint64_t>(i));
      auto theta = (*snapshot)->FoldInTheta({0, 1}, math::Vector(3, 3.0), 20,
                                            0.3, rng);
      if (!theta.ok() || *theta != expected[static_cast<size_t>(i)]) {
        mismatches[static_cast<size_t>(i)] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(mismatches[static_cast<size_t>(i)], 0);
}

// --- Memory-mapped binary snapshots ----------------------------------------

/// Packs TinyModel to TempDir under `name` and returns the base path.
std::string PackTinyBinary(const char* name) {
  std::string base = testing::TempDir() + "/" + name;
  EXPECT_TRUE(core::WriteModelBinary(TinyModel(), base).ok());
  return base;
}

TEST(ServingSnapshotTest, FromFileRoundTripsFingerprint) {
  std::string base = PackTinyBinary("texrheo_serve_snapshot_model");
  auto direct = ServingSnapshot::FromModel(TinyModel(), "direct");
  auto loaded = ServingSnapshot::FromFile(base + ".idx");
  ASSERT_TRUE(direct.ok() && loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->fingerprint(), (*direct)->fingerprint());
  EXPECT_EQ((*loaded)->source(), base + ".idx");
  EXPECT_GT((*loaded)->mapped_bytes(), 0u);
}

TEST(ServingSnapshotTest, FromFileFailsCleanlyOnMissingFile) {
  EXPECT_FALSE(ServingSnapshot::FromFile("/nonexistent/model.idx").ok());
}

TEST(ServingSnapshotTest, ConcurrentFoldInsOnMmapSnapshotMatchHeapSnapshot) {
  // A snapshot mapped from a pack (phi rows served straight from the
  // mapping) must be bit-identical to one built from the model and safe to
  // race; the TSan leg of ci.sh watches this test like its twin above.
  std::string base = PackTinyBinary("texrheo_mmap_concurrent");
  auto heap = ServingSnapshot::FromModel(TinyModel(), "heap");
  auto mapped = ServingSnapshot::FromFile(base + ".idx");
  ASSERT_TRUE(heap.ok() && mapped.ok()) << mapped.status().ToString();
  std::vector<std::vector<double>> expected(8);
  for (int i = 0; i < 8; ++i) {
    Rng rng = Rng::ForStream(321, static_cast<uint64_t>(i));
    auto theta =
        (*heap)->FoldInTheta({0, 1}, math::Vector(3, 3.0), 20, 0.3, rng);
    ASSERT_TRUE(theta.ok());
    expected[static_cast<size_t>(i)] = *theta;
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      Rng rng = Rng::ForStream(321, static_cast<uint64_t>(i));
      auto theta =
          (*mapped)->FoldInTheta({0, 1}, math::Vector(3, 3.0), 20, 0.3, rng);
      if (!theta.ok() || *theta != expected[static_cast<size_t>(i)]) {
        mismatches[static_cast<size_t>(i)] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(mismatches[static_cast<size_t>(i)], 0);
}

TEST(ServingSnapshotTest, EmbeddingViewIsByteIdenticalAcrossHeapAndMmap) {
  // One trained table, two sources: a snapshot built from the model and
  // the table, and a mapped pack written from the same table, must expose
  // bit-identical vectors and norms through embedding_view().
  embed::EmbeddingTable table;
  table.dim = 8;
  table.vectors.resize(4 * table.dim);
  for (size_t i = 0; i < table.vectors.size(); ++i) {
    table.vectors[i] = 0.5f - 0.03125f * static_cast<float>(i);
  }
  table.RecomputeNorms();

  std::string base = testing::TempDir() + "/texrheo_embed_pack";
  ASSERT_TRUE(
      core::WriteModelBinary(TinyModel(), base, FileOps::Real(), &table)
          .ok());
  auto heap = ServingSnapshot::FromModel(TinyModel(), "heap", table);
  auto mapped = ServingSnapshot::FromFile(base + ".idx");
  ASSERT_TRUE(heap.ok() && mapped.ok()) << mapped.status().ToString();

  ASSERT_TRUE((*heap)->has_embeddings());
  ASSERT_TRUE((*mapped)->has_embeddings());
  embed::EmbeddingView heap_view = (*heap)->embedding_view();
  embed::EmbeddingView mmap_view = (*mapped)->embedding_view();
  ASSERT_EQ(heap_view.dim, mmap_view.dim);
  ASSERT_EQ(heap_view.vocab, mmap_view.vocab);
  ASSERT_EQ(heap_view.vectors.size(), mmap_view.vectors.size());
  EXPECT_EQ(std::memcmp(heap_view.vectors.data(), mmap_view.vectors.data(),
                        heap_view.vectors.size() * sizeof(float)),
            0);
  ASSERT_EQ(heap_view.norms.size(), mmap_view.norms.size());
  EXPECT_EQ(std::memcmp(heap_view.norms.data(), mmap_view.norms.data(),
                        heap_view.norms.size() * sizeof(float)),
            0);
  // Embeddings ride outside the fingerprint: both snapshots identify the
  // same topic model as the table-less pack of it.
  auto plain = ServingSnapshot::FromModel(TinyModel(), "plain");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*heap)->fingerprint(), (*plain)->fingerprint());
  EXPECT_EQ((*mapped)->fingerprint(), (*plain)->fingerprint());
}

TEST(ServingSnapshotTest, LegacySnapshotsReportNoEmbeddings) {
  auto heap = ServingSnapshot::FromModel(TinyModel(), "plain");
  ASSERT_TRUE(heap.ok());
  EXPECT_FALSE((*heap)->has_embeddings());
  EXPECT_TRUE((*heap)->embedding_view().vectors.empty());
  auto mapped =
      ServingSnapshot::FromFile(PackTinyBinary("texrheo_no_embed"));
  ASSERT_TRUE(mapped.ok());
  EXPECT_FALSE((*mapped)->has_embeddings());
  EXPECT_TRUE((*mapped)->embedding_view().vectors.empty());
}

/// Real mmap plus map/unmap accounting, so tests can observe exactly when
/// the mapping is released relative to snapshot references.
class CountingMapOps final : public core::MemoryMapOps {
 public:
  StatusOr<core::MappedRegion> Map(const std::string& path) override {
    maps.fetch_add(1, std::memory_order_relaxed);
    return core::MemoryMapOps::Map(path);
  }
  void Unmap(core::MappedRegion region) override {
    unmaps.fetch_add(1, std::memory_order_relaxed);
    core::MemoryMapOps::Unmap(region);
  }
  std::atomic<int> maps{0};
  std::atomic<int> unmaps{0};
};

TEST(ServingSnapshotTest, UnmapDeferredUntilLastReferenceDrops) {
  std::string base = PackTinyBinary("texrheo_mmap_refcount");
  CountingMapOps ops;
  auto loaded = ServingSnapshot::FromFile(base + ".idx", ops);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(ops.maps.load(), 1);
  std::shared_ptr<const ServingSnapshot> holder = *loaded;
  loaded->reset();  // "Reload" drops the published pointer...
  EXPECT_EQ(ops.unmaps.load(), 0);  // ...but an in-flight query still reads.
  EXPECT_EQ(holder->phi(0)[0], 0.7);
  holder.reset();
  EXPECT_EQ(ops.unmaps.load(), 1);  // Last reference gone: region released.
}

TEST(ServingSnapshotTest, UnmapWaitsForInFlightQueriesUnderRace) {
  // Threads keep querying their own reference while the main thread drops
  // the published snapshot mid-flight (the reload pattern). The mapping
  // must be released exactly once, only after the stragglers finish; TSan
  // verifies no query ever touches unmapped memory.
  std::string base = PackTinyBinary("texrheo_mmap_reload_race");
  CountingMapOps ops;
  auto loaded = ServingSnapshot::FromFile(base + ".idx", ops);
  ASSERT_TRUE(loaded.ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([snapshot = *loaded, i, &failures] {
      for (int sweep = 0; sweep < 30; ++sweep) {
        Rng rng = Rng::ForStream(55, static_cast<uint64_t>(i * 100 + sweep));
        auto theta =
            snapshot->FoldInTheta({0, 1}, math::Vector(3, 3.0), 5, 0.3, rng);
        if (!theta.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  loaded->reset();  // Unpublish while queries are in flight.
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ops.maps.load(), 1);
  EXPECT_EQ(ops.unmaps.load(), 1);
}

// --- Checkpoint loading -----------------------------------------------------

recipe::Dataset CheckpointDataset() {
  recipe::Dataset ds;
  ds.term_vocab.Add("w0");
  ds.term_vocab.Add("w1");
  auto add = [&ds](std::vector<int32_t> terms, double gel) {
    recipe::Document doc;
    doc.recipe_index = ds.documents.size();
    doc.term_ids = std::move(terms);
    doc.gel_feature = math::Vector(1, gel);
    doc.emulsion_feature = math::Vector(1, 0.0);
    doc.gel_concentration = math::Vector(1, 0.01);
    doc.emulsion_concentration = math::Vector(1, 0.1);
    ds.documents.push_back(std::move(doc));
  };
  add({0, 0}, 1.0);
  add({1}, 3.0);
  add({0, 1}, 1.5);
  return ds;
}

core::JointTopicModelConfig CheckpointConfig() {
  core::JointTopicModelConfig config;
  config.num_topics = 2;
  config.alpha = 0.5;
  config.gamma = 0.5;
  config.use_emulsion_likelihood = false;
  config.seed = 31;
  return config;
}

TEST(ServingSnapshotTest, FromCheckpointFileRebuildsTheTrainedModel) {
  recipe::Dataset ds = CheckpointDataset();
  auto model = core::JointTopicModel::Create(CheckpointConfig(), &ds);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->RunSweeps(10).ok());
  std::string path = testing::TempDir() + "/texrheo_serve_snapshot.ckpt";
  ASSERT_TRUE(
      core::WriteCheckpointFile(path, model->CaptureCheckpoint()).ok());

  auto from_ckpt = ServingSnapshot::FromCheckpointFile(path, ds);
  ASSERT_TRUE(from_ckpt.ok()) << from_ckpt.status().ToString();
  auto direct = ServingSnapshot::FromModel(
      core::MakeSnapshot(model->Estimate(), ds.term_vocab), "direct");
  ASSERT_TRUE(direct.ok());
  // Bit-exact restore => identical serialized content => same fingerprint.
  EXPECT_EQ((*from_ckpt)->fingerprint(), (*direct)->fingerprint());
  std::remove(path.c_str());
}

TEST(ServingSnapshotTest, FromCheckpointFileRefusesWrongCorpus) {
  recipe::Dataset ds = CheckpointDataset();
  auto model = core::JointTopicModel::Create(CheckpointConfig(), &ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->RunSweeps(5).ok());
  std::string path = testing::TempDir() + "/texrheo_serve_snapshot_bad.ckpt";
  ASSERT_TRUE(
      core::WriteCheckpointFile(path, model->CaptureCheckpoint()).ok());

  recipe::Dataset other = CheckpointDataset();
  other.documents.pop_back();  // Different corpus shape.
  EXPECT_FALSE(ServingSnapshot::FromCheckpointFile(path, other).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace texrheo::serve
