#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/checkpoint.h"
#include "core/joint_topic_model.h"
#include "math/special.h"

namespace texrheo::serve {

namespace {

constexpr int kTopTermsPerTopic = 12;

/// TPA pole a vocabulary word contributes to (see CategoryMasses).
enum class Pole : uint8_t { kHard, kSoft, kElastic, kCrumbly, kSticky, kDry,
                            kOther };

Pole ClassifyWord(const text::TextureDictionary& dict, std::string_view word) {
  const text::TextureTerm* term = dict.Find(word);
  if (term == nullptr) return Pole::kOther;
  if (text::IsHardTerm(*term)) return Pole::kHard;
  if (text::IsSoftTerm(*term)) return Pole::kSoft;
  if (text::IsElasticTerm(*term)) return Pole::kElastic;
  if (text::IsCrumblyTerm(*term)) return Pole::kCrumbly;
  if (text::IsStickyTerm(*term)) return Pole::kSticky;
  return Pole::kDry;
}

}  // namespace

int32_t ServingSnapshot::WordId(std::string_view term) const {
  auto it = word_index_.find(term);
  return it == word_index_.end() ? text::Vocabulary::kUnknownId : it->second;
}

Status ServingSnapshot::Validate() const {
  // The image already passed the format checks (shapes, CRCs, vocabulary
  // pool, embedding finiteness); serving additionally needs phi to be a
  // non-negative, finite mass table.
  for (int k = 0; k < num_topics(); ++k) {
    for (double p : phi(k)) {
      if (!std::isfinite(p) || p < 0.0) {
        return Status::InvalidArgument(
            "serving snapshot: phi contains negative or non-finite mass");
      }
    }
  }
  return Status::OK();
}

void ServingSnapshot::BuildSummaries(const text::TextureDictionary& dict,
                                     int top_terms) {
  // Classify each vocabulary word into its pole once (V dictionary lookups
  // instead of K*V): summary building is on the reload path, and most of
  // the load cost.
  std::vector<Pole> poles(vocab_size());
  for (size_t v = 0; v < vocab_size(); ++v) {
    poles[v] = ClassifyWord(dict, word(v));
  }
  summaries_.clear();
  summaries_.resize(static_cast<size_t>(num_topics()));
  std::vector<size_t> order(vocab_size());
  for (int k = 0; k < num_topics(); ++k) {
    TopicTermSummary& summary = summaries_[static_cast<size_t>(k)];
    std::span<const double> row = phi(k);
    for (size_t v = 0; v < vocab_size(); ++v) {
      double p = row[v];
      switch (poles[v]) {
        case Pole::kHard: summary.masses.hard += p; break;
        case Pole::kSoft: summary.masses.soft += p; break;
        case Pole::kElastic: summary.masses.elastic += p; break;
        case Pole::kCrumbly: summary.masses.crumbly += p; break;
        case Pole::kSticky: summary.masses.sticky += p; break;
        case Pole::kDry: summary.masses.dry += p; break;
        case Pole::kOther: summary.masses.other += p; break;
      }
    }
    // Only the top terms are materialized as strings; sort ids, not pairs.
    size_t keep = std::min<size_t>(static_cast<size_t>(top_terms),
                                   vocab_size());
    for (size_t v = 0; v < vocab_size(); ++v) order[v] = v;
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(keep),
                      order.end(), [&row](size_t a, size_t b) {
                        if (row[a] != row[b]) return row[a] > row[b];
                        return a < b;  // Deterministic among ties.
                      });
    summary.top_terms.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      summary.top_terms.emplace_back(std::string(word(order[i])),
                                     row[order[i]]);
    }
  }
}

StatusOr<std::shared_ptr<const ServingSnapshot>> ServingSnapshot::FromModel(
    const core::ModelSnapshot& model, std::string source,
    const embed::EmbeddingTable& embeddings) {
  TEXRHEO_ASSIGN_OR_RETURN(core::ModelImage image,
                           core::EncodeModelImage(model, &embeddings));
  TEXRHEO_ASSIGN_OR_RETURN(std::shared_ptr<const core::MappedModel> mapped,
                           core::MappedModel::FromImage(std::move(image)));
  return Build(std::move(mapped), std::move(source));
}

StatusOr<std::shared_ptr<const ServingSnapshot>> ServingSnapshot::FromFile(
    const std::string& path, core::MemoryMapOps& ops) {
  TEXRHEO_ASSIGN_OR_RETURN(std::shared_ptr<const core::MappedModel> mapped,
                           core::MappedModel::Open(path, ops));
  std::string source = mapped->idx_path();
  return Build(std::move(mapped), std::move(source));
}

StatusOr<std::shared_ptr<const ServingSnapshot>> ServingSnapshot::Build(
    std::shared_ptr<const core::MappedModel> model, std::string source) {
  auto snapshot = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snapshot->source_ = std::move(source);
  snapshot->model_ = std::move(model);
  const core::MappedModel& mapped = *snapshot->model_;

  // The Gaussians need a Cholesky for LogPdf anyway - tiny: K blocks of
  // Dg^2 + De^2 doubles. phi stays in the image.
  TEXRHEO_ASSIGN_OR_RETURN(snapshot->estimates_,
                           core::DecodeTopicGaussians(mapped));

  // Word -> id over string_views into the pool (stable while the image
  // lives). A duplicated word would make lookups ambiguous - reject.
  snapshot->word_index_.reserve(mapped.vocab_size());
  for (size_t v = 0; v < mapped.vocab_size(); ++v) {
    auto [it, inserted] =
        snapshot->word_index_.emplace(mapped.word(v), static_cast<int32_t>(v));
    if (!inserted) {
      return Status::InvalidArgument(
          "model binary: vocabulary pool contains duplicate words");
    }
  }

  TEXRHEO_RETURN_IF_ERROR(snapshot->Validate());
  snapshot->BuildSummaries(text::TextureDictionary::Embedded(),
                           kTopTermsPerTopic);
  return std::shared_ptr<const ServingSnapshot>(std::move(snapshot));
}

StatusOr<std::shared_ptr<const ServingSnapshot>>
ServingSnapshot::FromCheckpointFile(const std::string& path,
                                    const recipe::Dataset& dataset) {
  TEXRHEO_ASSIGN_OR_RETURN(core::CheckpointState state,
                           core::ReadCheckpointFile(path));
  if (state.fingerprint.sampler != core::SamplerKind::kJoint) {
    return Status::FailedPrecondition(
        "serving snapshot: checkpoint was written by a different sampler");
  }
  // Reconstruct the training configuration from the checkpoint fingerprint;
  // RestoreFromCheckpoint then re-verifies the fingerprint and cross-checks
  // the count matrices against `dataset`, refusing a corpus mismatch.
  core::JointTopicModelConfig config;
  config.num_topics = state.fingerprint.num_topics;
  config.alpha = state.fingerprint.alpha;
  config.gamma = state.fingerprint.gamma;
  config.seed = state.fingerprint.seed;
  config.num_threads = state.fingerprint.num_threads;
  config.optimize_alpha = state.fingerprint.optimize_alpha;
  config.use_emulsion_likelihood = state.fingerprint.use_emulsion_likelihood;
  config.gmm_init = state.fingerprint.gmm_init;
  TEXRHEO_ASSIGN_OR_RETURN(core::JointTopicModel model,
                           core::JointTopicModel::Create(config, &dataset));
  TEXRHEO_RETURN_IF_ERROR(model.RestoreFromCheckpoint(state));
  return FromModel(core::MakeSnapshot(model.Estimate(), dataset.term_vocab),
                   path);
}

StatusOr<std::vector<double>> ServingSnapshot::FoldInTheta(
    const std::vector<int32_t>& term_ids, const math::Vector& gel_feature,
    int sweeps, double alpha, Rng& rng) const {
  if (sweeps < 1) {
    return Status::InvalidArgument("fold-in: sweeps must be >= 1");
  }
  if (alpha <= 0.0) {
    return Status::InvalidArgument("fold-in: alpha must be positive");
  }
  const core::TopicEstimates& est = estimates();
  int k_count = num_topics();
  for (int32_t term : term_ids) {
    if (term < 0 || static_cast<size_t>(term) >= vocab_size()) {
      return Status::OutOfRange("fold-in: term id outside model vocabulary");
    }
  }
  if (gel_feature.size() != est.gel_topics.front().dim()) {
    return Status::InvalidArgument(
        "fold-in: gel feature dimension does not match model");
  }
  // One phi view per topic, resolved up front.
  std::vector<std::span<const double>> phi_rows;
  phi_rows.reserve(static_cast<size_t>(k_count));
  for (int k = 0; k < k_count; ++k) phi_rows.push_back(phi(k));

  // Same two-block Gibbs scan as JointTopicModel::FoldInTheta, with the
  // collapsed count ratios replaced by the snapshot's phi point estimates.
  std::vector<int> local_z(term_ids.size());
  std::vector<int> local_n_k(static_cast<size_t>(k_count), 0);
  for (size_t n = 0; n < term_ids.size(); ++n) {
    int k = static_cast<int>(rng.NextUint(static_cast<uint64_t>(k_count)));
    local_z[n] = k;
    ++local_n_k[static_cast<size_t>(k)];
  }
  int local_y =
      static_cast<int>(rng.NextUint(static_cast<uint64_t>(k_count)));

  std::vector<double> weights(static_cast<size_t>(k_count));
  std::vector<double> log_w(static_cast<size_t>(k_count));
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (size_t n = 0; n < term_ids.size(); ++n) {
      size_t v = static_cast<size_t>(term_ids[n]);
      --local_n_k[static_cast<size_t>(local_z[n])];
      for (int k = 0; k < k_count; ++k) {
        size_t ks = static_cast<size_t>(k);
        weights[ks] = (static_cast<double>(local_n_k[ks]) +
                       (local_y == k ? 1.0 : 0.0) + alpha) *
                      phi_rows[ks][v];
      }
      double total = 0.0;
      for (double w : weights) total += w;
      if (total <= 0.0) {
        // Every topic gives this term zero mass (possible after reload onto
        // a model whose phi zeroes the term); fall back to the prior.
        for (double& w : weights) w = 1.0;
      }
      local_z[n] = static_cast<int>(rng.NextCategorical(weights));
      ++local_n_k[static_cast<size_t>(local_z[n])];
    }
    for (int k = 0; k < k_count; ++k) {
      size_t ks = static_cast<size_t>(k);
      double lw =
          std::log(static_cast<double>(local_n_k[ks]) + alpha) +
          est.gel_topics[ks].LogPdf(gel_feature);
      log_w[ks] = lw;
    }
    double norm = math::LogSumExp(log_w.data(), log_w.size());
    for (int k = 0; k < k_count; ++k) {
      weights[static_cast<size_t>(k)] =
          std::exp(log_w[static_cast<size_t>(k)] - norm);
    }
    local_y = static_cast<int>(rng.NextCategorical(weights));
  }

  double n_d = static_cast<double>(term_ids.size());
  double alpha_sum = alpha * static_cast<double>(k_count);
  std::vector<double> theta(static_cast<size_t>(k_count));
  for (int k = 0; k < k_count; ++k) {
    size_t ks = static_cast<size_t>(k);
    theta[ks] = (static_cast<double>(local_n_k[ks]) +
                 (local_y == k ? 1.0 : 0.0) + alpha) /
                (n_d + 1.0 + alpha_sum);
  }
  return theta;
}

int ServingSnapshot::InferTopicForFeatures(
    const math::Vector& gel_feature) const {
  const core::TopicEstimates& est = estimates();
  int best = 0;
  double best_lw = -std::numeric_limits<double>::infinity();
  for (int k = 0; k < num_topics(); ++k) {
    size_t ks = static_cast<size_t>(k);
    double prior = 1.0;
    if (!est.topic_recipe_count.empty()) {
      prior += static_cast<double>(est.topic_recipe_count[ks]);
    }
    double lw = std::log(prior) + est.gel_topics[ks].LogPdf(gel_feature);
    if (lw > best_lw) {
      best_lw = lw;
      best = k;
    }
  }
  return best;
}

}  // namespace texrheo::serve
