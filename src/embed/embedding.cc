#include "embed/embedding.h"

#include <cmath>

namespace texrheo::embed {
namespace {

// Mirrors core/model_binary's kMaxDim: a vector wider than this is not a
// plausible model.
constexpr uint64_t kMaxEmbeddingDim = 1024;

}  // namespace

void EmbeddingTable::RecomputeNorms() {
  const size_t vocab = vocab_size();
  norms.assign(vocab, 0.0f);
  for (size_t v = 0; v < vocab; ++v) {
    double sum = 0.0;
    for (float x : vec(v)) sum += static_cast<double>(x) * x;
    norms[v] = static_cast<float>(std::sqrt(sum));
  }
}

Status ValidateEmbeddingTable(const EmbeddingTable& table) {
  if (table.vectors.empty() && table.norms.empty() && table.dim == 0) {
    return Status::OK();
  }
  if (table.dim == 0) {
    return Status::InvalidArgument("embedding table has data but dim == 0");
  }
  if (table.dim > kMaxEmbeddingDim) {
    return Status::InvalidArgument("embedding dim " +
                                   std::to_string(table.dim) +
                                   " exceeds the maximum of " +
                                   std::to_string(kMaxEmbeddingDim));
  }
  if (table.vectors.size() % table.dim != 0) {
    return Status::InvalidArgument(
        "embedding vector count " + std::to_string(table.vectors.size()) +
        " is not a multiple of dim " + std::to_string(table.dim));
  }
  const size_t vocab = table.vectors.size() / table.dim;
  if (vocab == 0) {
    return Status::InvalidArgument("embedding table has dim but no vectors");
  }
  if (table.norms.size() != vocab) {
    return Status::InvalidArgument(
        "embedding norm count " + std::to_string(table.norms.size()) +
        " does not match vocabulary size " + std::to_string(vocab));
  }
  for (float x : table.vectors) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("embedding vector contains a non-finite value");
    }
  }
  for (float x : table.norms) {
    if (!std::isfinite(x) || x < 0.0f) {
      return Status::InvalidArgument(
          "embedding norm is negative or non-finite");
    }
  }
  return Status::OK();
}

}  // namespace texrheo::embed
