#ifndef TEXRHEO_EMBED_EMBEDDING_H_
#define TEXRHEO_EMBED_EMBEDDING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace texrheo::embed {

/// Dense ingredient/texture-term embeddings over a model vocabulary.
///
/// The table is indexed by the *model's* term-vocabulary ids (the same ids
/// Document::term_ids and ServingSnapshot::WordId use), so a trained table
/// lines up with the topic model it ships with: row v is the vector of the
/// word the model calls v. Norms are cached because every cosine consumer
/// (top-k scans, the fused SIMILAR backend) divides by them on the hot path.
struct EmbeddingTable {
  uint32_t dim = 0;
  std::vector<float> vectors;  ///< vocab * dim, row-major by vocab id.
  std::vector<float> norms;    ///< vocab cached L2 norms of the rows.

  size_t vocab_size() const {
    return dim == 0 ? 0 : vectors.size() / static_cast<size_t>(dim);
  }
  bool empty() const { return vectors.empty(); }
  std::span<const float> vec(size_t v) const {
    return {vectors.data() + v * static_cast<size_t>(dim),
            static_cast<size_t>(dim)};
  }
  /// Recomputes `norms` from `vectors` (double accumulation, float store).
  void RecomputeNorms();
};

/// Non-owning span view of an embedding table: a heap EmbeddingTable or
/// the embedding sections of a model image (core/model_binary.h) serve
/// through the same view, so consumers (EmbeddingIndex, the query engine)
/// never depend on where the floats live.
struct EmbeddingView {
  size_t vocab = 0;
  size_t dim = 0;
  std::span<const float> vectors;  ///< vocab * dim.
  std::span<const float> norms;    ///< vocab.

  bool empty() const { return vocab == 0 || dim == 0; }
  std::span<const float> vec(size_t v) const {
    return vectors.subspan(v * dim, dim);
  }
  static EmbeddingView Of(const EmbeddingTable& table) {
    return EmbeddingView{table.vocab_size(), table.dim, table.vectors,
                         table.norms};
  }
};

/// Structural check: dim >= 1, vectors.size() == vocab * dim,
/// norms.size() == vocab, every value finite. Empty tables are valid.
Status ValidateEmbeddingTable(const EmbeddingTable& table);

}  // namespace texrheo::embed

#endif  // TEXRHEO_EMBED_EMBEDDING_H_
