#include "core/serialization.h"

namespace texrheo::core {

ModelSnapshot MakeSnapshot(const TopicEstimates& estimates,
                           const text::Vocabulary& vocab) {
  ModelSnapshot snapshot;
  // Rebuild the vocabulary to detach it from the dataset, preserving the
  // corpus occurrence counts (they are part of the packed model).
  for (size_t id = 0; id < vocab.size(); ++id) {
    snapshot.vocab.AddWithCount(vocab.WordOf(static_cast<int32_t>(id)),
                                vocab.CountOf(static_cast<int32_t>(id)));
  }
  snapshot.estimates.phi = estimates.phi;
  snapshot.estimates.gel_topics = estimates.gel_topics;
  snapshot.estimates.emulsion_topics = estimates.emulsion_topics;
  snapshot.estimates.topic_recipe_count = estimates.topic_recipe_count;
  return snapshot;
}

}  // namespace texrheo::core
