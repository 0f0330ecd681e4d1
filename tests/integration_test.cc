// End-to-end integration: exercises the full reproduction pipeline across
// module boundaries in one deterministic scenario - corpus generation,
// corpus file IO, word2vec screening, dataset funnel, both samplers,
// linkage + validation, dish analysis, model pack round trip, held-out
// scoring, and rule mining.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/collapsed_sampler.h"
#include "core/model_binary.h"
#include "core/serialization.h"
#include "eval/dish_analysis.h"
#include "eval/experiment.h"
#include "eval/heldout.h"
#include "eval/metrics.h"
#include "eval/validation.h"
#include "rules/transactions.h"

namespace texrheo {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::ExperimentConfig config = eval::DefaultExperimentConfig(0.08);
    config.model.sweeps = 150;
    auto result_or = eval::RunJointExperiment(config);
    ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
    result_ = new eval::ExperimentResult(std::move(result_or).value());
  }

  static const eval::ExperimentResult& result() { return *result_; }

 private:
  static eval::ExperimentResult* result_;
};

eval::ExperimentResult* IntegrationTest::result_ = nullptr;

TEST_F(IntegrationTest, CorpusSurvivesFileRoundTrip) {
  std::string path = testing::TempDir() + "/texrheo_integration_corpus.tsv";
  ASSERT_TRUE(recipe::SaveCorpus(path, result().recipes).ok());
  auto loaded = recipe::LoadCorpus(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), result().recipes.size());
  // Rebuilding the dataset from the reloaded corpus reproduces the funnel.
  auto dataset = recipe::BuildDataset(
      *loaded, recipe::IngredientDatabase::Embedded(),
      text::TextureDictionary::Embedded(), nullptr, recipe::DatasetConfig());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->funnel.with_gel, result().recipes.size());
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, ModelSnapshotRoundTripPreservesInference) {
  core::ModelSnapshot snapshot = core::MakeSnapshot(
      result().estimates, result().dataset.term_vocab);
  const std::string base = testing::TempDir() + "/texrheo_integration_model";
  ASSERT_TRUE(core::WriteModelBinary(snapshot, base).ok());
  auto reloaded = core::ReadModelBinary(base);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  // Linkage through the reloaded snapshot agrees with the live estimates.
  recipe::FeatureConfig fc;
  for (const auto& dish : rheology::TableIIb()) {
    auto live = core::LinkConcentrationToTopic(result().estimates, dish.gel,
                                               fc);
    auto restored = core::LinkConcentrationToTopic(reloaded->estimates,
                                                   dish.gel, fc);
    ASSERT_TRUE(live.ok() && restored.ok());
    EXPECT_EQ(live->topic, restored->topic) << dish.name;
  }
}

TEST_F(IntegrationTest, CollapsedSamplerAgreesOnTheRealCorpus) {
  core::JointTopicModelConfig config = result().resolved_model_config;
  config.auto_prior = true;
  config.sweeps = 120;
  auto collapsed =
      core::CollapsedJointTopicModel::Create(config, &result().dataset);
  ASSERT_TRUE(collapsed.ok());
  ASSERT_TRUE(collapsed->Train().ok());
  auto est = collapsed->Estimate();
  ASSERT_TRUE(est.ok());
  auto agreement = eval::ScoreClustering(est->doc_topic,
                                         result().estimates.doc_topic);
  ASSERT_TRUE(agreement.ok());
  // Different inference algorithms, same posterior: strong but not perfect
  // agreement is expected on real (non-separable) data.
  EXPECT_GT(agreement->nmi, 0.35);
}

TEST_F(IntegrationTest, HeldOutPerplexityBeatsUnigram) {
  eval::HeldOutSplit split = eval::SplitDataset(result().dataset, 0.25, 5);
  core::JointTopicModelConfig config = result().resolved_model_config;
  auto model = core::JointTopicModel::Create(config, &split.train);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Train().ok());
  auto model_ppl = eval::ConcentrationConditionalPerplexity(
      model->Estimate(), model->config(), split.test);
  auto unigram_ppl = eval::UnigramPerplexity(split.train, split.test);
  ASSERT_TRUE(model_ppl.ok() && unigram_ppl.ok());
  EXPECT_LT(*model_ppl, *unigram_ppl);
}

TEST_F(IntegrationTest, ValidationAndDishAnalysisRun) {
  auto validation = eval::ValidateLinkage(result());
  ASSERT_TRUE(validation.ok());
  EXPECT_GT(validation->agreement, 0.45);

  for (const auto& dish : rheology::TableIIb()) {
    auto analysis = eval::AnalyzeDish(result(), dish);
    ASSERT_TRUE(analysis.ok()) << dish.name;
    EXPECT_FALSE(analysis->ranked.empty()) << dish.name;
  }
}

TEST_F(IntegrationTest, RuleMiningFindsTextureRules) {
  rules::TransactionBuilder builder;
  auto transactions = builder.EncodeCorpus(
      result().recipes, recipe::IngredientDatabase::Embedded(),
      text::TextureDictionary::Embedded());
  EXPECT_EQ(transactions.size(), result().recipes.size());

  std::vector<int32_t> texture_items = builder.TextureItemIds();
  std::vector<rules::Transaction> with_texture;
  for (auto& t : transactions) {
    for (int32_t item : texture_items) {
      if (std::binary_search(t.begin(), t.end(), item)) {
        with_texture.push_back(std::move(t));
        break;
      }
    }
  }
  EXPECT_GT(with_texture.size(), 100u);

  rules::AprioriConfig apriori;
  apriori.min_support = 0.02;
  apriori.min_confidence = 0.3;
  apriori.consequent_whitelist = texture_items;
  apriori.antecedent_blacklist = texture_items;
  auto mined = rules::Apriori::MineRules(with_texture, apriori);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined->empty());
}

TEST_F(IntegrationTest, WholePipelineIsDeterministic) {
  eval::ExperimentConfig config = eval::DefaultExperimentConfig(0.02);
  config.model.sweeps = 40;
  auto a = eval::RunJointExperiment(config);
  auto b = eval::RunJointExperiment(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->estimates.doc_topic, b->estimates.doc_topic);
  EXPECT_DOUBLE_EQ(a->final_log_likelihood, b->final_log_likelihood);
  for (size_t i = 0; i < a->setting_links.size(); ++i) {
    EXPECT_EQ(a->setting_links[i].topic, b->setting_links[i].topic);
  }
}

}  // namespace
}  // namespace texrheo
