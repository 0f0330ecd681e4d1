#include "pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <utility>
#include <vector>

#include "core/joint_topic_model.h"
#include "core/linkage.h"
#include "core/model_binary.h"
#include "core/serialization.h"
#include "corpus/generator.h"
#include "independent.h"
#include "recipe/ingredient.h"
#include "rheology/empirical_data.h"
#include "rheology/gel_model.h"
#include "text/texture_dictionary.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"

namespace perfbench {

namespace eval = texrheo::eval;
using texrheo::Status;
using texrheo::StatusOr;

eval::ExperimentConfig PaperConfig(uint64_t seed,
                                   const std::string& checkpoint_dir) {
  eval::ExperimentConfig config = eval::DefaultExperimentConfig(1.0);
  config.corpus.seed = SubSeed(seed, 1);
  config.word2vec.seed = SubSeed(seed, 2);
  config.model.seed = SubSeed(seed, 3);
  if (!checkpoint_dir.empty()) {
    config.model.checkpoint_dir = checkpoint_dir;
    config.model.checkpoint_interval = std::max(1, config.model.sweeps / 2);
  }
  return config;
}

namespace {

Status Pack(const eval::ExperimentResult& result, const std::string& base) {
  return texrheo::core::WriteModelBinary(
      texrheo::core::MakeSnapshot(result.estimates,
                                  result.dataset.term_vocab),
      base);
}

/// RunJointExperiment's steps, each timed around its module's public call.
StatusOr<eval::ExperimentResult> TracedPipeline(
    const eval::ExperimentConfig& config, const std::string& pack_base,
    RunReport* layers) {
  eval::ExperimentResult result;
  Clock::time_point t = Clock::now();
  texrheo::corpus::CorpusGenerator generator(
      config.corpus, &texrheo::rheology::GelPhysicsModel::Calibrated(),
      &texrheo::text::TextureDictionary::Embedded());
  result.recipes = generator.Generate();
  layers->Set("corpus.generate_s", SecondsSince(t), "s");

  t = Clock::now();
  std::vector<std::vector<std::string>> sentences;
  sentences.reserve(result.recipes.size());
  for (const auto& r : result.recipes) {
    sentences.push_back(texrheo::text::Tokenizer::Tokenize(r.description));
  }
  TEXRHEO_ASSIGN_OR_RETURN(
      texrheo::text::Word2Vec w2v,
      texrheo::text::Word2Vec::Train(sentences, config.word2vec));
  texrheo::text::GelRelatednessFilter filter(
      &w2v, texrheo::corpus::CorpusGenerator::ToppingIngredientNames(),
      config.filter);
  layers->Set("text.word2vec_s", SecondsSince(t), "s");

  t = Clock::now();
  TEXRHEO_ASSIGN_OR_RETURN(
      result.dataset,
      texrheo::recipe::BuildDataset(
          result.recipes, texrheo::recipe::IngredientDatabase::Embedded(),
          texrheo::text::TextureDictionary::Embedded(), &filter,
          config.dataset));
  layers->Set("recipe.dataset_s", SecondsSince(t), "s");
  double tokens = 0.0;
  for (const auto& doc : result.dataset.documents) {
    tokens += static_cast<double>(doc.term_ids.size());
  }
  layers->Set("recipe.documents",
              static_cast<double>(result.dataset.documents.size()), "count");
  layers->Set("recipe.tokens", tokens, "count");

  TEXRHEO_ASSIGN_OR_RETURN(
      texrheo::core::JointTopicModel model,
      texrheo::core::JointTopicModel::Create(config.model, &result.dataset));
  t = Clock::now();
  TEXRHEO_RETURN_IF_ERROR(model.Train());
  const double gibbs_s = SecondsSince(t);
  layers->Set("core.gibbs_s", gibbs_s, "s");
  layers->Set("core.token_draws_per_s",
              tokens * config.model.sweeps / gibbs_s, "1/s");

  t = Clock::now();
  result.estimates = model.Estimate();
  TEXRHEO_ASSIGN_OR_RETURN(
      result.setting_links,
      texrheo::core::LinkSettingsToTopics(result.estimates,
                                          texrheo::rheology::TableI(),
                                          config.dataset.feature,
                                          config.linkage));
  layers->Set("core.estimate_link_ms", SecondsSince(t) * 1e3, "ms");
  result.resolved_model_config = model.config();
  result.final_log_likelihood = model.LogJointLikelihood();

  t = Clock::now();
  TEXRHEO_RETURN_IF_ERROR(Pack(result, pack_base));
  layers->Set("core.pack_ms", SecondsSince(t) * 1e3, "ms");
  return result;
}

}  // namespace

StatusOr<double> TrainAndPack(const eval::ExperimentConfig& config,
                              const std::string& pack_base,
                              eval::ExperimentResult* result,
                              RunReport* layers) {
  const Clock::time_point t0 = Clock::now();
  if (layers != nullptr) {
    TEXRHEO_ASSIGN_OR_RETURN(*result,
                             TracedPipeline(config, pack_base, layers));
  } else {
    TEXRHEO_ASSIGN_OR_RETURN(*result, eval::RunJointExperiment(config));
    TEXRHEO_RETURN_IF_ERROR(Pack(*result, pack_base));
  }
  return SecondsSince(t0);
}

namespace {

std::vector<int> TruthClasses(const eval::ExperimentResult& result) {
  std::vector<int> truth;
  truth.reserve(result.dataset.documents.size());
  for (const auto& doc : result.dataset.documents) {
    const auto& meta = result.recipes[doc.recipe_index].metadata;
    auto it = meta.find(texrheo::corpus::kMetaTextureClass);
    truth.push_back(it == meta.end() ? -1 : std::stoi(it->second));
  }
  return truth;
}

}  // namespace

double TopicNmi(const eval::ExperimentResult& result) {
  return Nmi(result.estimates.doc_topic, TruthClasses(result));
}

void CheckTraining(const eval::ExperimentResult& result,
                   const eval::ExperimentConfig& config,
                   const std::string& pack_base, uint64_t seed,
                   RunReport* report) {
  // Funnel: the paper's 63,000 -> ~10,000 -> ~3,000 shape.
  const auto& funnel = result.dataset.funnel;
  report->Check(funnel.total == 63000, "funnel total " +
                                           std::to_string(funnel.total));
  report->Check(funnel.with_texture_terms >= 8000 &&
                    funnel.with_texture_terms <= 12500,
                "funnel with texture terms " +
                    std::to_string(funnel.with_texture_terms));
  report->Check(funnel.final_dataset >= 2400 && funnel.final_dataset <= 4000 &&
                    funnel.final_dataset == result.dataset.documents.size(),
                "funnel final " + std::to_string(funnel.final_dataset));

  // Every phi row is a distribution over the term vocabulary.
  const auto& phi = result.estimates.phi;
  report->Check(static_cast<int>(phi.size()) == config.model.num_topics,
                "phi has K rows");
  for (size_t k = 0; k < phi.size(); ++k) {
    double sum = 0.0;
    bool nonneg = phi[k].size() == result.dataset.term_vocab.size();
    for (double p : phi[k]) {
      sum += p;
      nonneg = nonneg && p >= 0.0;
    }
    report->Check(nonneg && std::fabs(sum - 1.0) < 1e-9,
                  "phi row " + std::to_string(k) + " is not a distribution");
  }

  // NMI clears the NMI of the same assignment against shuffled labels.
  std::vector<int> truth = TruthClasses(result);
  const double nmi = Nmi(result.estimates.doc_topic, truth);
  std::mt19937_64 rng(SubSeed(seed, 4));
  double best_shuffled = 0.0;
  for (int i = 0; i < 5; ++i) {
    std::shuffle(truth.begin(), truth.end(), rng);
    best_shuffled = std::max(best_shuffled,
                             Nmi(result.estimates.doc_topic, truth));
  }
  report->Check(nmi > best_shuffled + 0.05,
                "topic NMI " + std::to_string(nmi) +
                    " does not clear shuffled labels " +
                    std::to_string(best_shuffled));

  // Each Table-I link minimises the benchmark's own closed-form KL.
  const auto& table = texrheo::rheology::TableI();
  report->Check(result.setting_links.size() == table.size(),
                "one link per Table-I setting");
  for (size_t s = 0; s < table.size() && s < result.setting_links.size();
       ++s) {
    const std::vector<double> x = InformationQuantity(
        table[s].gel.data(), config.dataset.feature.epsilon);
    int best = -1;
    double best_kl = 0.0;
    for (size_t k = 0; k < result.estimates.gel_topics.size(); ++k) {
      const auto& g = result.estimates.gel_topics[k];
      std::vector<double> precision;
      for (size_t i = 0; i < x.size(); ++i) {
        for (size_t j = 0; j < x.size(); ++j) {
          precision.push_back(g.precision()(i, j));
        }
      }
      const double kl = GaussianKl(x, config.linkage.measurement_sigma,
                                   g.mean().data(), precision);
      if (best < 0 || kl < best_kl) {
        best = static_cast<int>(k);
        best_kl = kl;
      }
    }
    report->Check(result.setting_links[s].topic == best,
                  "Table-I setting " + std::to_string(table[s].id) +
                      " linked to topic " +
                      std::to_string(result.setting_links[s].topic) +
                      ", own KL picks " + std::to_string(best));
  }

  // The pack, read back, equals the estimates. Packing goes through the
  // v2 text form, which prints every double with 12 decimals.
  auto packed = texrheo::core::ReadModelBinary(pack_base);
  if (!report->Check(packed.ok(), "ReadModelBinary of the pack")) return;
  auto eq = [](double a, double b) { return std::fabs(a - b) <= 1e-12; };
  const auto& vocab = result.dataset.term_vocab;
  const auto& est = result.estimates;
  const auto& got = packed->estimates;
  std::string differs;
  if (packed->vocab.size() != vocab.size()) differs = "vocabulary size";
  for (size_t v = 0; differs.empty() && v < vocab.size(); ++v) {
    const auto id = static_cast<int32_t>(v);
    if (packed->vocab.WordOf(id) != vocab.WordOf(id) ||
        packed->vocab.CountOf(id) != vocab.CountOf(id)) {
      differs = "vocabulary entry " + vocab.WordOf(id);
    }
  }
  if (got.topic_recipe_count != est.topic_recipe_count) {
    differs = "topic recipe counts";
  }
  if (got.phi.size() != phi.size() ||
      got.gel_topics.size() != est.gel_topics.size() ||
      got.emulsion_topics.size() != est.emulsion_topics.size()) {
    differs = "topic count";
  }
  for (size_t k = 0; differs.empty() && k < phi.size(); ++k) {
    for (size_t v = 0; v < phi[k].size(); ++v) {
      if (got.phi[k].size() != phi[k].size() || !eq(got.phi[k][v], phi[k][v])) {
        differs = "phi row " + std::to_string(k);
        break;
      }
    }
    for (const auto* pair : {&got.gel_topics, &got.emulsion_topics}) {
      const auto& a = (*pair)[k];
      const auto& b = pair == &got.gel_topics ? est.gel_topics[k]
                                              : est.emulsion_topics[k];
      bool ok = true;
      for (size_t i = 0; i < b.mean().size(); ++i) {
        ok = ok && eq(a.mean()[i], b.mean()[i]);
        for (size_t j = 0; j < b.mean().size(); ++j) {
          ok = ok && eq(a.precision()(i, j), b.precision()(i, j));
        }
      }
      if (!ok) differs = "Gaussian of topic " + std::to_string(k);
    }
  }
  report->Check(differs.empty(),
                "pack read back differs from the estimates: " + differs);
}

namespace {

void PutDoubles(std::ostream& out, const texrheo::math::Vector& v) {
  char buf[40];
  out << ' ' << v.size();
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), " %a", v[i]);
    out << buf;
  }
}

bool GetDoubles(std::istream& in, texrheo::math::Vector* v) {
  size_t n = 0;
  if (!(in >> n) || n > 64) return false;
  *v = texrheo::math::Vector(n);
  std::string token;
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> token)) return false;
    (*v)[i] = std::strtod(token.c_str(), nullptr);
  }
  return true;
}

}  // namespace

Status WriteDataset(const texrheo::recipe::Dataset& dataset,
                    const std::string& path) {
  std::ofstream out(path);
  const auto& vocab = dataset.term_vocab;
  out << "perfbench-dataset 1\n" << vocab.size() << '\n';
  for (size_t v = 0; v < vocab.size(); ++v) {
    const auto id = static_cast<int32_t>(v);
    out << vocab.WordOf(id) << ' ' << vocab.CountOf(id) << '\n';
  }
  out << dataset.documents.size() << '\n';
  for (const auto& doc : dataset.documents) {
    out << doc.recipe_index << ' ' << doc.term_ids.size();
    for (int32_t id : doc.term_ids) out << ' ' << id;
    PutDoubles(out, doc.gel_feature);
    PutDoubles(out, doc.emulsion_feature);
    PutDoubles(out, doc.gel_concentration);
    PutDoubles(out, doc.emulsion_concentration);
    out << '\n';
  }
  out.close();
  if (!out) return Status::Internal("cannot write dataset " + path);
  return Status::OK();
}

StatusOr<texrheo::recipe::Dataset> ReadDataset(const std::string& path) {
  std::ifstream in(path);
  std::string magic;
  int version = 0;
  size_t vocab_size = 0;
  if (!(in >> magic >> version >> vocab_size) ||
      magic != "perfbench-dataset" || version != 1) {
    return Status::InvalidArgument("not a perfbench dataset: " + path);
  }
  texrheo::recipe::Dataset dataset;
  for (size_t v = 0; v < vocab_size; ++v) {
    std::string word;
    int64_t count = 0;
    if (!(in >> word >> count)) return Status::InvalidArgument("bad vocab");
    dataset.term_vocab.AddWithCount(word, count);
  }
  size_t docs = 0;
  if (!(in >> docs)) return Status::InvalidArgument("bad document count");
  dataset.documents.resize(docs);
  for (auto& doc : dataset.documents) {
    size_t terms = 0;
    if (!(in >> doc.recipe_index >> terms) || terms > 4096) {
      return Status::InvalidArgument("bad document");
    }
    doc.term_ids.resize(terms);
    for (auto& id : doc.term_ids) in >> id;
    if (!GetDoubles(in, &doc.gel_feature) ||
        !GetDoubles(in, &doc.emulsion_feature) ||
        !GetDoubles(in, &doc.gel_concentration) ||
        !GetDoubles(in, &doc.emulsion_concentration)) {
      return Status::InvalidArgument("bad document vectors");
    }
  }
  dataset.funnel.final_dataset = docs;
  return dataset;
}

}  // namespace perfbench
