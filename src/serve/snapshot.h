#ifndef TEXRHEO_SERVE_SNAPSHOT_H_
#define TEXRHEO_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/model_binary.h"
#include "core/serialization.h"
#include "embed/embedding.h"
#include "math/linalg.h"
#include "recipe/dataset.h"
#include "text/texture_dictionary.h"
#include "util/rng.h"
#include "util/status.h"

namespace texrheo::serve {

/// Probability mass a topic's term distribution puts on each pole of the
/// three TPA axes (hardness, cohesiveness, adhesiveness). `other` absorbs
/// vocabulary words absent from the texture dictionary.
struct CategoryMasses {
  double hard = 0.0;
  double soft = 0.0;
  double elastic = 0.0;
  double crumbly = 0.0;
  double sticky = 0.0;
  double dry = 0.0;
  double other = 0.0;
};

/// Pre-aggregated term view of one topic, derived once at snapshot build
/// time so per-query work never touches the raw phi matrix for reporting.
struct TopicTermSummary {
  CategoryMasses masses;
  /// Top terms by phi, descending: (surface form, probability).
  std::vector<std::pair<std::string, double>> top_terms;
};

/// An immutable, self-contained trained model prepared for serving.
///
/// ServingSnapshot is the unit the query engine swaps on hot reload: it is
/// built fully before it becomes visible, never mutated afterwards, and
/// handed out as shared_ptr<const ServingSnapshot> so an in-flight query
/// keeps its model alive across any number of reloads. Every accessor is
/// therefore safe from any thread by construction.
///
/// The model is always a verified section image (core::MappedModel): a
/// mapped pack for FromFile, an in-memory encoding of the estimates for
/// FromModel / FromCheckpointFile. Phi rows, the vocabulary and the
/// embeddings are served straight out of the image; a snapshot built from
/// a model and one loaded from its pack hold the same bytes and answer
/// bit-identically. A mapping stays alive while the snapshot (and
/// transitively every in-flight query holding it) does, so unmapping is
/// deferred until the last reference drops.
class ServingSnapshot {
 public:
  /// Encodes the model into a section image (core::EncodeModelImage) and
  /// serves it exactly as a loaded pack of it. Fails on structurally
  /// inconsistent estimates (phi/Gaussian/topic-count shape mismatches). A
  /// non-empty `embeddings` table (vocabulary-aligned with the model)
  /// enables the embed/fused SIMILAR backends; it does not enter the
  /// fingerprint, which identifies the topic model alone.
  static StatusOr<std::shared_ptr<const ServingSnapshot>> FromModel(
      const core::ModelSnapshot& model, std::string source,
      const embed::EmbeddingTable& embeddings = {});

  /// Maps a packed model pair (see core/model_binary.h). `path` may be the
  /// `.idx`, the `.dat`, or the bare base path. The fingerprint is read from
  /// the verified index header rather than recomputed, so load cost is the
  /// mmap, one CRC pass, and the per-topic summaries. What RELOAD and
  /// --model accept.
  static StatusOr<std::shared_ptr<const ServingSnapshot>> FromFile(
      const std::string& path,
      core::MemoryMapOps& ops = core::MemoryMapOps::Real());

  /// Rebuilds a servable model from a Gibbs *checkpoint*: the checkpoint's
  /// fingerprint reconstructs the training configuration, the sampler state
  /// is restored through the usual fingerprint + corpus cross-checks
  /// (refused on any mismatch), and eq.-5 estimates are extracted. The
  /// dataset must be the corpus the checkpoint was trained on.
  static StatusOr<std::shared_ptr<const ServingSnapshot>> FromCheckpointFile(
      const std::string& path, const recipe::Dataset& dataset);

  int num_topics() const { return model_->num_topics(); }
  size_t vocab_size() const { return model_->vocab_size(); }
  /// Model id stored in the image's index (core::ModelFingerprint): two
  /// snapshots with the same fingerprint serve identical answers.
  uint32_t fingerprint() const { return model_->fingerprint(); }
  /// Where the snapshot came from (path or label), for /statsz.
  const std::string& source() const { return source_; }
  /// Bytes of the section image, for /statsz.
  size_t mapped_bytes() const { return model_->mapped_bytes(); }

  /// P(term v | topic k), served from the image.
  std::span<const double> phi(int k) const { return model_->phi_row(k); }
  /// True when the image carries the embedding section pair, enabling
  /// embedding-backed similarity.
  bool has_embeddings() const { return model_->has_embeddings(); }
  /// Zero-copy span view of the embedding sections; empty view when
  /// has_embeddings() is false. Valid while the snapshot lives — exactly
  /// the lifetime every in-flight query already holds.
  embed::EmbeddingView embedding_view() const {
    return model_->embedding_view();
  }

  /// Surface form of a vocabulary id.
  std::string_view word(size_t v) const { return model_->word(v); }
  /// Id of `term`, or text::Vocabulary::kUnknownId.
  int32_t WordId(std::string_view term) const;
  /// Per-topic Gaussians and Table-I linkage counts, materialized once at
  /// build (the Gaussians need a Cholesky for LogPdf anyway). `phi` inside
  /// is intentionally empty - use phi(k).
  const core::TopicEstimates& estimates() const { return estimates_; }

  const TopicTermSummary& term_summary(int k) const {
    return summaries_[static_cast<size_t>(k)];
  }

  /// Eq.-5 fold-in against the snapshot's *point estimates*: phi replaces
  /// the training count ratios and the stored per-topic gel Gaussian
  /// replaces the instantiated eq.-4 sample. Gibbs-samples the query's own
  /// z / y for `sweeps` and returns the theta estimate. Const and
  /// re-entrant: the caller supplies the RNG, all scratch is local.
  StatusOr<std::vector<double>> FoldInTheta(
      const std::vector<int32_t>& term_ids, const math::Vector& gel_feature,
      int sweeps, double alpha, Rng& rng) const;

  /// Most likely topic for a gel feature vector alone, prior-weighted by
  /// the per-topic training recipe counts (the serving analogue of
  /// JointTopicModel::InferTopicForFeatures).
  int InferTopicForFeatures(const math::Vector& gel_feature) const;

 private:
  ServingSnapshot() = default;

  /// Shared tail of every factory: derives the Gaussians, the word index
  /// and the per-topic summaries from a verified image, validating
  /// finiteness and positive-definiteness on the way.
  static StatusOr<std::shared_ptr<const ServingSnapshot>> Build(
      std::shared_ptr<const core::MappedModel> model, std::string source);
  Status Validate() const;
  void BuildSummaries(const text::TextureDictionary& dict, int top_terms);

  std::string source_;
  std::vector<TopicTermSummary> summaries_;

  /// The model: a verified section image, mapped or owned.
  std::shared_ptr<const core::MappedModel> model_;
  // Derived from model_ at build: Gaussians and linkage counts (phi left
  // empty), and a word -> id index over string_views into the image's
  // vocabulary pool (stable for the life of model_).
  core::TopicEstimates estimates_;
  std::unordered_map<std::string_view, int32_t> word_index_;
};

}  // namespace texrheo::serve

#endif  // TEXRHEO_SERVE_SNAPSHOT_H_
