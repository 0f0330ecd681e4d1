// Query inputs made from the seed, and the checks of the answers the
// serving layer gives to them.
#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/serialization.h"
#include "recipe/dataset.h"
#include "serve/query_engine.h"

namespace perfbench {

/// Concentrations are drawn on the engine's 1e-4 cache grid, so the
/// benchmark knows each query's canonical key exactly.
inline constexpr double kQuantum = 1e-4;

struct QuerySpec {
  std::vector<int> gel;       ///< Grid units per gel type.
  std::vector<int> emulsion;  ///< Grid units per emulsion type.
  std::vector<std::string> terms;  ///< Sorted, in the served vocabulary.

  texrheo::serve::TextureQuery ToQuery() const;
  /// "PREDICT ..." / "SIMILAR ... mode=kl" protocol lines.
  std::string PredictLine() const;
  std::string SimilarLine() const;
};

/// Draws queries shaped like the corpus documents (a document's
/// concentrations, jittered on the grid, and one or two of its terms).
/// Every query drawn by one maker has a distinct canonical key.
class QueryMaker {
 public:
  QueryMaker(const texrheo::recipe::Dataset* corpus, uint64_t seed);
  QuerySpec Next();

 private:
  QuerySpec Draw();

  const texrheo::recipe::Dataset* corpus_;
  std::mt19937_64 rng_;
  std::unordered_set<std::string> seen_;
};

/// Checks of answers against the pack, read back with ReadModelBinary.
class AnswerChecker {
 public:
  /// `dictionary_vocab`: every served term is a texture-dictionary word,
  /// so the six pole masses of a PREDICT answer carry all of its mass.
  AnswerChecker(texrheo::core::ModelSnapshot model, bool dictionary_vocab)
      : model_(std::move(model)), dictionary_vocab_(dictionary_vocab) {}
  int num_topics() const { return model_.num_topics(); }

  /// PREDICT: masses sum to 1 within print rounding (at most 1 when the
  /// vocabulary has grown past the dictionary), topic in [0, K).
  bool CheckPredict(const std::string& body, std::string* why) const;
  /// TOPIC k: recipe count and top terms equal the pack's phi row.
  bool CheckTopic(int k, const std::string& body, std::string* why) const;
  /// NEAREST k method=m: ranking and divergences equal the benchmark's own.
  bool CheckNearest(int k, const std::string& method, const std::string& body,
                    std::string* why) const;
  /// SIMILAR: topic in [0, K), recipes nearest first.
  bool CheckSimilar(const std::string& body, std::string* why) const;

 private:
  texrheo::core::ModelSnapshot model_;
  bool dictionary_vocab_;
};

/// A PREDICT body with the cached flag normalised, for comparing a hit
/// with the miss that filled it.
std::string WithoutCachedFlag(const std::string& body);

/// The "topic=" field of an answer, or -1.
int TopicOf(const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
