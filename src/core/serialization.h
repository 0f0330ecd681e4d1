#ifndef TEXRHEO_CORE_SERIALIZATION_H_
#define TEXRHEO_CORE_SERIALIZATION_H_

#include "core/joint_topic_model.h"
#include "text/vocabulary.h"

namespace texrheo::core {

/// A trained model's distributable state: the texture-term vocabulary, the
/// per-topic term distributions, and the per-topic Gaussians. Everything a
/// downstream user needs to annotate new recipes or link new measurements
/// (per-document theta is derivable and intentionally not persisted).
/// Its one on-disk and in-memory encoding is the section image of
/// core/model_binary.h (WriteModelBinary / ReadModelBinary).
struct ModelSnapshot {
  text::Vocabulary vocab;
  TopicEstimates estimates;  ///< theta / doc_topic left empty.

  /// Number of topics in the snapshot.
  int num_topics() const {
    return static_cast<int>(estimates.phi.size());
  }
};

/// Builds a snapshot from a trained model's estimates and the dataset
/// vocabulary (theta and per-document fields are stripped).
ModelSnapshot MakeSnapshot(const TopicEstimates& estimates,
                           const text::Vocabulary& vocab);

}  // namespace texrheo::core

#endif  // TEXRHEO_CORE_SERIALIZATION_H_
