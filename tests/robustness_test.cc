// Fuzz-style robustness tests: the parsers (quantities, CSV, recipe rows,
// checkpoints, model pack indexes) must reject or survive arbitrary byte
// soup without crashing or violating invariants. Inputs are generated from
// seeded RNGs so every failure is reproducible.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "core/checkpoint.h"
#include "core/joint_topic_model.h"
#include "core/model_binary.h"
#include "core/serialization.h"
#include "embed/embedding.h"
#include "recipe/dataset.h"
#include "recipe/recipe.h"
#include "recipe/units.h"
#include "text/tokenizer.h"
#include "util/csv.h"
#include "util/rng.h"

namespace texrheo {
namespace {

std::string RandomBytes(Rng& rng, size_t max_len) {
  size_t len = rng.NextUint(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Printable-ish byte soup plus the delimiters parsers care about,
    // spiked with NULs, high bytes, and invalid UTF-8 lead/continuation
    // bytes so parsers see genuinely hostile input too.
    static constexpr char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789 \t\n\".,;=/-+eE"
        "\x00\x01\x7f\x80\xbf\xc0\xe0\xf0\xfe\xff";
    // sizeof - 1 drops only the terminating NUL; the embedded one stays.
    s.push_back(kAlphabet[rng.NextUint(sizeof(kAlphabet) - 1)]);
  }
  return s;
}

class FuzzSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeedTest, ParseQuantityNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 2000; ++i) {
    std::string input = RandomBytes(rng, 24);
    auto q = recipe::ParseQuantity(input);
    if (q.ok()) {
      EXPECT_GE(q->amount, 0.0) << "input: '" << input << "'";
    }
  }
}

TEST_P(FuzzSeedTest, CsvParserNeverCrashesAndRoundTripsWhenOk) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  for (int i = 0; i < 1000; ++i) {
    std::string input = RandomBytes(rng, 64);
    auto row = ParseCsvLine(input);
    if (row.ok()) {
      // Reformatting and reparsing a successfully parsed row is stable.
      auto again = ParseCsvLine(FormatCsvLine(*row));
      ASSERT_TRUE(again.ok()) << "input: '" << input << "'";
      EXPECT_EQ(*again, *row);
    }
  }
}

TEST_P(FuzzSeedTest, CsvReaderHandlesArbitraryDocuments) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  for (int i = 0; i < 300; ++i) {
    auto rows = CsvReader::ReadAll(RandomBytes(rng, 256));
    if (rows.ok()) {
      for (const auto& row : *rows) {
        EXPECT_GE(row.size(), 1u);
      }
    }
  }
}

TEST_P(FuzzSeedTest, RecipeRowParserNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 3000);
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::string> row;
    size_t fields = rng.NextUint(7);
    for (size_t f = 0; f < fields; ++f) {
      row.push_back(RandomBytes(rng, 32));
    }
    auto parsed = recipe::RecipeFromRow(row);
    if (parsed.ok()) {
      // A successfully parsed recipe serializes back without error.
      auto round = recipe::RecipeFromRow(recipe::RecipeToRow(*parsed));
      EXPECT_TRUE(round.ok());
    }
  }
}

TEST_P(FuzzSeedTest, CheckpointDecoderNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 6000);
  for (int i = 0; i < 200; ++i) {
    auto state = core::DecodeCheckpoint(RandomBytes(rng, 400));
    EXPECT_FALSE(state.ok());  // Random soup never checksums.
  }
  // Byte soup behind a valid frame header must be rejected cleanly too:
  // the length/CRC fields are attacker-controlled.
  for (int i = 0; i < 200; ++i) {
    std::string framed = "TXRCKPT1" + RandomBytes(rng, 400);
    EXPECT_FALSE(core::DecodeCheckpoint(framed).ok());
  }
}

TEST_P(FuzzSeedTest, BinaryIndexParserNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 7000);
  for (int i = 0; i < 400; ++i) {
    // Raw soup, then soup behind a valid magic so the parser gets past the
    // first gate and exercises the frame/CRC/entry decoding on hostile
    // length and count fields.
    std::string soup = RandomBytes(rng, 512);
    auto parsed = core::ParseModelBinaryIndex(soup);
    if (!parsed.ok()) EXPECT_FALSE(parsed.status().message().empty());
    auto framed = core::ParseModelBinaryIndex("texrmbi1" + soup);
    if (framed.ok()) {
      // Astronomically unlikely CRC collision aside, anything that parses
      // must still pass structural validation or fail with a clean Status.
      (void)core::ValidateModelBinaryIndex(*framed);
    }
  }
}

// Structure-aware index fuzz: take a *valid* packed model, mutate random
// header/section-table fields to adversarial values, re-encode with a
// correct trailing CRC (so the checksum gate cannot save us), and open.
// Every rejection must be a position-noted Status — section name or byte
// offset — and every acceptance must describe the original model.
TEST_P(FuzzSeedTest, BinaryIndexMutationsAlwaysYieldCleanStatus) {
  core::ModelSnapshot snapshot;
  snapshot.vocab.Add("purupuru");
  snapshot.vocab.Add("fuwafuwa");
  snapshot.vocab.Add("katai");
  snapshot.estimates.phi = {{0.5, 0.3, 0.2}, {0.2, 0.3, 0.5}};
  for (int k = 0; k < 2; ++k) {
    snapshot.estimates.gel_topics.push_back(
        math::Gaussian::FromPrecision(math::Vector(2, 1.0 + k),
                                      math::Matrix::Identity(2))
            .value());
    snapshot.estimates.emulsion_topics.push_back(
        math::Gaussian::FromPrecision(math::Vector(3, 2.0 * k),
                                      math::Matrix::Identity(3))
            .value());
  }
  snapshot.estimates.topic_recipe_count = {3, 4};
  std::string base = testing::TempDir() + "/robust_binary_fuzz_" +
                     std::to_string(GetParam());
  ASSERT_TRUE(core::WriteModelBinary(snapshot, base).ok());
  core::ModelBinaryPaths paths = core::ModelBinaryPathsFor(base);
  auto idx_bytes = ReadFileToString(paths.idx);
  ASSERT_TRUE(idx_bytes.ok());
  auto pristine = core::ParseModelBinaryIndex(*idx_bytes);
  ASSERT_TRUE(pristine.ok());

  static constexpr uint64_t kHostileValues[] = {
      0,  1,  7,  63, 64, 65, 4096, uint64_t{1} << 20, uint64_t{1} << 31,
      uint64_t{1} << 40, ~uint64_t{0}, ~uint64_t{0} - 63};
  Rng rng(static_cast<uint64_t>(GetParam()) + 8000);
  for (int i = 0; i < 300; ++i) {
    core::ModelBinaryIndex mutated = *pristine;
    size_t edits = 1 + rng.NextUint(3);
    for (size_t e = 0; e < edits; ++e) {
      uint64_t value = kHostileValues[rng.NextUint(
          sizeof(kHostileValues) / sizeof(kHostileValues[0]))];
      size_t slot = rng.NextUint(mutated.sections.size());
      switch (rng.NextUint(10)) {
        case 0: mutated.num_topics = static_cast<uint32_t>(value); break;
        case 1: mutated.vocab_size = value; break;
        case 2: mutated.gel_dim = static_cast<uint32_t>(value); break;
        case 3: mutated.emulsion_dim = static_cast<uint32_t>(value); break;
        case 4: mutated.data_file_size = value; break;
        case 5: mutated.sections[slot].id = static_cast<uint32_t>(value); break;
        case 6: mutated.sections[slot].offset = value; break;
        case 7: mutated.sections[slot].size = value; break;
        case 8: mutated.sections[slot].count = value; break;
        case 9:
          std::swap(mutated.sections[slot],
                    mutated.sections[rng.NextUint(mutated.sections.size())]);
          break;
      }
    }
    Status written =
        WriteStringToFile(paths.idx, core::EncodeModelBinaryIndex(mutated));
    ASSERT_TRUE(written.ok());
    auto opened = core::MappedModel::Open(base);
    if (!opened.ok()) {
      const std::string& message = opened.status().message();
      EXPECT_FALSE(message.empty());
      EXPECT_TRUE(message.find("model binary") != std::string::npos ||
                  message.find("mmap:") != std::string::npos)
          << "unlabelled rejection: " << message;
    } else {
      // The mutations happened to cancel out; the model served must be the
      // original, never a reinterpretation of its bytes.
      EXPECT_EQ((*opened)->num_topics(), 2);
      EXPECT_EQ((*opened)->vocab_size(), 3u);
      EXPECT_EQ((*opened)->fingerprint(), pristine->fingerprint);
    }
  }
  // Restore the pristine index: the pair still opens after the barrage.
  ASSERT_TRUE(
      WriteStringToFile(paths.idx, core::EncodeModelBinaryIndex(*pristine))
          .ok());
  EXPECT_TRUE(core::MappedModel::Open(base).ok());
}

// The same barrage against an 11-section pack: the optional embedding pair
// widens the index surface (two more id/offset/size/count quadruples and
// the both-or-neither rule), so it gets its own fuzz rounds. Acceptance
// must serve the original embeddings bit-for-bit, never a reinterpretation.
TEST_P(FuzzSeedTest, EmbeddingPackIndexMutationsAlwaysYieldCleanStatus) {
  core::ModelSnapshot snapshot;
  snapshot.vocab.Add("purupuru");
  snapshot.vocab.Add("fuwafuwa");
  snapshot.vocab.Add("katai");
  snapshot.estimates.phi = {{0.5, 0.3, 0.2}, {0.2, 0.3, 0.5}};
  for (int k = 0; k < 2; ++k) {
    snapshot.estimates.gel_topics.push_back(
        math::Gaussian::FromPrecision(math::Vector(2, 1.0 + k),
                                      math::Matrix::Identity(2))
            .value());
    snapshot.estimates.emulsion_topics.push_back(
        math::Gaussian::FromPrecision(math::Vector(3, 2.0 * k),
                                      math::Matrix::Identity(3))
            .value());
  }
  snapshot.estimates.topic_recipe_count = {3, 4};
  embed::EmbeddingTable table;
  table.dim = 4;
  table.vectors.resize(3 * table.dim);
  for (size_t i = 0; i < table.vectors.size(); ++i) {
    table.vectors[i] = 0.125f * static_cast<float>(i) - 0.5f;
  }
  table.RecomputeNorms();
  std::string base = testing::TempDir() + "/robust_embed_fuzz_" +
                     std::to_string(GetParam());
  ASSERT_TRUE(
      core::WriteModelBinary(snapshot, base, FileOps::Real(), &table).ok());
  core::ModelBinaryPaths paths = core::ModelBinaryPathsFor(base);
  auto idx_bytes = ReadFileToString(paths.idx);
  ASSERT_TRUE(idx_bytes.ok());
  auto pristine = core::ParseModelBinaryIndex(*idx_bytes);
  ASSERT_TRUE(pristine.ok());
  ASSERT_EQ(pristine->sections.size(),
            core::kModelSectionCountWithEmbeddings);

  static constexpr uint64_t kHostileValues[] = {
      0,  1,  7,  63, 64, 65, 4096, uint64_t{1} << 20, uint64_t{1} << 31,
      uint64_t{1} << 40, ~uint64_t{0}, ~uint64_t{0} - 63};
  Rng rng(static_cast<uint64_t>(GetParam()) + 9000);
  for (int i = 0; i < 300; ++i) {
    core::ModelBinaryIndex mutated = *pristine;
    size_t edits = 1 + rng.NextUint(3);
    for (size_t e = 0; e < edits; ++e) {
      uint64_t value = kHostileValues[rng.NextUint(
          sizeof(kHostileValues) / sizeof(kHostileValues[0]))];
      // Bias half the section edits onto the trailing embedding pair so the
      // new validators see the hostile values, not just the legacy nine.
      size_t slot = rng.NextUint(2) == 0
                        ? 9 + rng.NextUint(2)
                        : rng.NextUint(mutated.sections.size());
      switch (rng.NextUint(11)) {
        case 0: mutated.num_topics = static_cast<uint32_t>(value); break;
        case 1: mutated.vocab_size = value; break;
        case 2: mutated.gel_dim = static_cast<uint32_t>(value); break;
        case 3: mutated.emulsion_dim = static_cast<uint32_t>(value); break;
        case 4: mutated.data_file_size = value; break;
        case 5: mutated.sections[slot].id = static_cast<uint32_t>(value); break;
        case 6: mutated.sections[slot].offset = value; break;
        case 7: mutated.sections[slot].size = value; break;
        case 8: mutated.sections[slot].count = value; break;
        case 9:
          std::swap(mutated.sections[slot],
                    mutated.sections[rng.NextUint(mutated.sections.size())]);
          break;
        case 10:
          // Structural downgrade: drop one or both trailing sections.
          mutated.sections.resize(9 + rng.NextUint(2));
          break;
      }
    }
    Status written =
        WriteStringToFile(paths.idx, core::EncodeModelBinaryIndex(mutated));
    ASSERT_TRUE(written.ok());
    auto opened = core::MappedModel::Open(base);
    if (!opened.ok()) {
      const std::string& message = opened.status().message();
      EXPECT_FALSE(message.empty());
      EXPECT_TRUE(message.find("model binary") != std::string::npos ||
                  message.find("mmap:") != std::string::npos)
          << "unlabelled rejection: " << message;
    } else {
      EXPECT_EQ((*opened)->num_topics(), 2);
      EXPECT_EQ((*opened)->vocab_size(), 3u);
      EXPECT_EQ((*opened)->fingerprint(), pristine->fingerprint);
      // Dropping both trailing sections yields a *legal* legacy view of
      // the same dat — embeddings reported absent, never half-served. Any
      // accepted index that still lists the pair must serve it bit-exact.
      if ((*opened)->has_embeddings()) {
        ASSERT_EQ((*opened)->embedding_matrix().size(),
                  table.vectors.size());
        EXPECT_EQ(std::memcmp((*opened)->embedding_matrix().data(),
                              table.vectors.data(),
                              table.vectors.size() * sizeof(float)),
                  0);
      } else {
        EXPECT_TRUE((*opened)->embedding_matrix().empty());
        EXPECT_TRUE((*opened)->embedding_norms().empty());
      }
    }
  }
  ASSERT_TRUE(
      WriteStringToFile(paths.idx, core::EncodeModelBinaryIndex(*pristine))
          .ok());
  EXPECT_TRUE(core::MappedModel::Open(base).ok());
}

TEST_P(FuzzSeedTest, TokenizerHandlesArbitraryText) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 5000);
  const auto& dict = text::TextureDictionary::Embedded();
  for (int i = 0; i < 500; ++i) {
    std::string input = RandomBytes(rng, 128);
    auto tokens = text::Tokenizer::Tokenize(input);
    for (const auto& t : tokens) EXPECT_FALSE(t.empty());
    auto terms = text::Tokenizer::ExtractTextureTerms(input, dict);
    for (const auto& t : terms) EXPECT_TRUE(dict.Contains(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest, ::testing::Range(0, 5));

// Truncation fuzz: a crash can cut a file at *any* byte; every strict
// prefix of a checkpoint must be rejected, never half-loaded. (The model
// pack's twin lives in model_binary_test: EveryIdx/DatTruncationPrefix.)
TEST(RobustnessTest, TruncatedCheckpointFilesAreAlwaysRejected) {
  recipe::Dataset ds;
  ds.term_vocab.Add("w0");
  recipe::Document doc;
  doc.recipe_index = 0;
  doc.term_ids = {0};
  doc.gel_feature = math::Vector(1, 1.0);
  doc.emulsion_feature = math::Vector(1, 0.0);
  doc.gel_concentration = math::Vector(1, 0.01);
  doc.emulsion_concentration = math::Vector(1, 0.1);
  ds.documents.push_back(std::move(doc));
  core::JointTopicModelConfig config;
  config.num_topics = 1;
  config.seed = 4;
  auto model = core::JointTopicModel::Create(config, &ds);
  ASSERT_TRUE(model.ok());
  std::string ckpt_bytes = core::EncodeCheckpoint(model->CaptureCheckpoint());
  for (size_t len = 0; len < ckpt_bytes.size(); ++len) {
    EXPECT_FALSE(
        core::DecodeCheckpoint(std::string_view(ckpt_bytes).substr(0, len))
            .ok())
        << "checkpoint prefix of length " << len << " accepted";
  }
}

TEST(RobustnessTest, QuantityParserEdgeInputs) {
  // Handcrafted adversarial inputs.
  for (const char* input :
       {"", " ", "/", "1/", "/2", "1//2", "1/0", "-5 g", "1e308 g",
        "0x10 g", "1.2.3 g", "1 1 g", "999999999999999999999 g",
        ".5 cup", "1. g", "\t\n", "g 5", "1 / 2 cup"}) {
    auto q = recipe::ParseQuantity(input);
    if (q.ok()) {
      EXPECT_GE(q->amount, 0.0) << input;
      EXPECT_TRUE(std::isfinite(q->amount)) << input;
    }
  }
}

TEST(RobustnessTest, NegativeQuantityRejected) {
  EXPECT_FALSE(recipe::ParseQuantity("-5 g").ok());
}

TEST(RobustnessTest, HugeButFiniteQuantityAccepted) {
  auto q = recipe::ParseQuantity("100000 g");
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q->amount, 100000.0);
}

}  // namespace
}  // namespace texrheo
