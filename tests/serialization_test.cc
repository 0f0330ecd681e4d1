// Model persistence: MakeSnapshot, and a ModelSnapshot's round trip through
// its one encoding, the packed section image (core/model_binary.h).

#include "core/serialization.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "core/model_binary.h"
#include "fault_injection.h"
#include "serve/snapshot.h"
#include "util/crc32.h"
#include "util/csv.h"

namespace texrheo::core {
namespace {

ModelSnapshot SampleSnapshot() {
  ModelSnapshot snapshot;
  snapshot.vocab.Add("purupuru");
  snapshot.vocab.Add("katai");
  snapshot.vocab.Add("fuwafuwa");
  snapshot.estimates.phi = {{0.7, 0.2, 0.1}, {0.1, 0.8, 0.1}};
  math::Matrix precision(2, 2);
  precision(0, 0) = 3.0;
  precision(0, 1) = 0.5;
  precision(1, 0) = 0.5;
  precision(1, 1) = 2.0;
  snapshot.estimates.gel_topics.push_back(
      math::Gaussian::FromPrecision({4.5, 9.2}, precision).value());
  snapshot.estimates.gel_topics.push_back(
      math::Gaussian::FromPrecision({9.2, 5.1}, precision).value());
  snapshot.estimates.emulsion_topics.push_back(
      math::Gaussian::FromPrecision({1.0, 2.0},
                                    math::Matrix::Identity(2, 1.5))
          .value());
  snapshot.estimates.emulsion_topics.push_back(
      math::Gaussian::FromPrecision({2.0, 1.0},
                                    math::Matrix::Identity(2, 1.5))
          .value());
  snapshot.estimates.topic_recipe_count = {12, 30};
  return snapshot;
}

std::string TempBase(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(SerializationTest, PackRoundTripPreservesEverything) {
  ModelSnapshot original = SampleSnapshot();
  std::string base = TempBase("texrheo_serialization_round_trip");
  ASSERT_TRUE(WriteModelBinary(original, base).ok());
  auto loaded = ReadModelBinary(base);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->vocab.size(), 3u);
  EXPECT_EQ(loaded->vocab.WordOf(0), "purupuru");
  EXPECT_EQ(loaded->vocab.IdOf("katai"), 1);
  EXPECT_EQ(loaded->estimates.phi, original.estimates.phi);
  ASSERT_EQ(loaded->estimates.gel_topics.size(), 2u);
  EXPECT_EQ(loaded->estimates.gel_topics[0].mean(),
            original.estimates.gel_topics[0].mean());
  EXPECT_EQ(loaded->estimates.gel_topics[0].precision(),
            original.estimates.gel_topics[0].precision());
  EXPECT_EQ(loaded->estimates.topic_recipe_count,
            (std::vector<int>{12, 30}));
}

TEST(SerializationTest, LogPdfSurvivesPackRoundTrip) {
  ModelSnapshot original = SampleSnapshot();
  std::string base = TempBase("texrheo_serialization_logpdf");
  ASSERT_TRUE(WriteModelBinary(original, base).ok());
  auto loaded = ReadModelBinary(base);
  ASSERT_TRUE(loaded.ok());
  math::Vector x = {4.0, 8.0};
  EXPECT_EQ(loaded->estimates.gel_topics[0].LogPdf(x),
            original.estimates.gel_topics[0].LogPdf(x));
}

TEST(SerializationTest, PackCrashBeforeRenameKeepsOldPair) {
  std::string base = TempBase("texrheo_atomic_pack");
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  for (const std::string& path : {paths.dat, paths.idx}) {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
  ASSERT_TRUE(WriteModelBinary(SampleSnapshot(), base).ok());
  auto dat_before = ReadFileToString(paths.dat);
  auto idx_before = ReadFileToString(paths.idx);
  ASSERT_TRUE(dat_before.ok() && idx_before.ok());

  // The process dies between fsync and the first rename (.dat); the temp
  // file cannot be cleaned up either.
  ModelSnapshot changed = SampleSnapshot();
  changed.vocab.Add("tsurutsuru");
  for (auto& row : changed.estimates.phi) row.push_back(0.0);
  FaultInjectingFileOps ops;
  ops.crash_before_rename = true;
  ops.skip_remove = true;
  EXPECT_FALSE(WriteModelBinary(changed, base, ops).ok());

  // The previous pair is untouched and still loads.
  EXPECT_EQ(ReadFileToString(paths.dat).value_or(""), *dat_before);
  EXPECT_EQ(ReadFileToString(paths.idx).value_or(""), *idx_before);
  auto loaded = ReadModelBinary(base);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->vocab.size(), 3u);
  for (const std::string& path : {paths.dat, paths.idx}) {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
}

TEST(SerializationTest, RejectsNonPositiveDefinitePrecisionAtLoad) {
  std::string base = TempBase("texrheo_serialization_bad_precision");
  ASSERT_TRUE(WriteModelBinary(SampleSnapshot(), base).ok());
  // Negate the first diagonal entry of topic 0's gel precision and re-frame
  // the pack with valid CRCs: the bytes check out, the matrix does not.
  ModelBinaryPaths paths = ModelBinaryPathsFor(base);
  auto index = ParseModelBinaryIndex(ReadFileToString(paths.idx).value());
  ASSERT_TRUE(index.ok());
  std::string dat = ReadFileToString(paths.dat).value();
  ModelSectionEntry& precision = index->sections[2];
  ASSERT_EQ(precision.id, static_cast<uint32_t>(ModelSection::kGelPrecision));
  double diagonal = -3.0;
  std::memcpy(dat.data() + precision.offset, &diagonal, sizeof(diagonal));
  precision.crc32 = Crc32(dat.data() + precision.offset, precision.size);
  ASSERT_TRUE(WriteStringToFile(paths.dat, dat).ok());
  ASSERT_TRUE(WriteStringToFile(paths.idx, EncodeModelBinaryIndex(*index)).ok());

  ASSERT_TRUE(MappedModel::Open(base).ok());  // Format-valid...
  EXPECT_FALSE(ReadModelBinary(base).ok());   // ...but not a Gaussian.
  auto snapshot = serve::ServingSnapshot::FromFile(base);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(snapshot.status().message().find("positive definite"),
            std::string::npos)
      << snapshot.status().ToString();
}

TEST(SerializationTest, MakeSnapshotStripsPerDocumentState) {
  TopicEstimates estimates;
  estimates.phi = {{1.0}};
  estimates.theta = {{1.0}, {1.0}};
  estimates.doc_topic = {0, 0};
  estimates.topic_recipe_count = {2};
  estimates.gel_topics.push_back(
      math::Gaussian::FromPrecision({0.0}, math::Matrix::Identity(1))
          .value());
  estimates.emulsion_topics.push_back(
      math::Gaussian::FromPrecision({0.0}, math::Matrix::Identity(1))
          .value());
  text::Vocabulary vocab;
  vocab.Add("term");
  ModelSnapshot snapshot = MakeSnapshot(estimates, vocab);
  EXPECT_TRUE(snapshot.estimates.theta.empty());
  EXPECT_TRUE(snapshot.estimates.doc_topic.empty());
  EXPECT_EQ(snapshot.estimates.phi.size(), 1u);
  EXPECT_EQ(snapshot.vocab.size(), 1u);
}

TEST(SerializationTest, LoadMissingFileIsIOError) {
  auto loaded = ReadModelBinary("/nonexistent/texrheo/model");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(serve::ServingSnapshot::FromFile("/nonexistent/model.idx").ok());
}

}  // namespace
}  // namespace texrheo::core
