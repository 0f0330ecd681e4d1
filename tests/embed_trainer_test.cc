// SGNS trainer contract tests: argument validation, the 1-thread
// bit-exactness guarantee, the (seed, num_threads) determinism contract,
// loss descent on a structured toy corpus, and checkpoint resume
// equivalence.

#include "embed/sgns_trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "embed/embedding.h"
#include "fault_injection.h"
#include "util/rng.h"

namespace texrheo::embed {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  std::string dir = testing::TempDir() + "/texrheo_embed_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Structured toy corpus: two ingredient "communities" that never co-occur.
/// Ids 0..4 always appear together, ids 5..9 always appear together, so a
/// trainer that learns anything pulls within-community vectors together.
std::vector<std::vector<int32_t>> TwoCommunityCorpus(int sentences_per) {
  std::vector<std::vector<int32_t>> sentences;
  Rng rng(7);
  for (int s = 0; s < sentences_per; ++s) {
    std::vector<int32_t> a, b;
    for (int i = 0; i < 5; ++i) {
      if (rng.NextDouble() < 0.8) a.push_back(i);
      if (rng.NextDouble() < 0.8) b.push_back(5 + i);
    }
    if (a.size() >= 2) sentences.push_back(std::move(a));
    if (b.size() >= 2) sentences.push_back(std::move(b));
  }
  return sentences;
}

SgnsConfig SmallConfig() {
  SgnsConfig config;
  config.dim = 8;
  config.window = 3;
  config.negatives = 4;
  config.epochs = 4;
  return config;
}

TEST(SgnsTrainerTest, RejectsBadArguments) {
  auto sentences = TwoCommunityCorpus(10);
  SgnsConfig config = SmallConfig();
  config.dim = 0;
  EXPECT_FALSE(TrainSgns(sentences, 10, config).ok());
  config = SmallConfig();
  config.num_threads = 0;
  EXPECT_FALSE(TrainSgns(sentences, 10, config).ok());
  // A term id outside [0, vocab_size) is a caller bug, not trainable data.
  EXPECT_FALSE(TrainSgns({{0, 99}}, 10, SmallConfig()).ok());
  EXPECT_FALSE(TrainSgns({{0, -1}}, 10, SmallConfig()).ok());
  // No trainable sentence at all (every bag shorter than two tokens).
  EXPECT_FALSE(TrainSgns({{0}, {1}}, 10, SmallConfig()).ok());
}

TEST(SgnsTrainerTest, OneThreadRunsAreBitExact) {
  auto sentences = TwoCommunityCorpus(30);
  SgnsConfig config = SmallConfig();
  auto a = TrainSgns(sentences, 10, config);
  auto b = TrainSgns(sentences, 10, config);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->vectors.size(), b->vectors.size());
  EXPECT_EQ(std::memcmp(a->vectors.data(), b->vectors.data(),
                        a->vectors.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(a->norms.data(), b->norms.data(),
                        a->norms.size() * sizeof(float)),
            0);
}

TEST(SgnsTrainerTest, SeedAndThreadCountChangeTheRun) {
  auto sentences = TwoCommunityCorpus(30);
  SgnsConfig config = SmallConfig();
  auto base = TrainSgns(sentences, 10, config);
  ASSERT_TRUE(base.ok());
  // A different seed must produce a different table (same shapes).
  SgnsConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  auto other = TrainSgns(sentences, 10, reseeded);
  ASSERT_TRUE(other.ok());
  ASSERT_EQ(base->vectors.size(), other->vectors.size());
  EXPECT_NE(std::memcmp(base->vectors.data(), other->vectors.data(),
                        base->vectors.size() * sizeof(float)),
            0);
  // Thread count is part of the RNG stream layout, so a 2-shard run is a
  // different (but equally valid) draw from the same distribution.
  SgnsConfig threaded = config;
  threaded.num_threads = 2;
  auto parallel = TrainSgns(sentences, 10, threaded);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->dim, 8u);
  EXPECT_EQ(parallel->vocab_size(), 10u);
  EXPECT_TRUE(ValidateEmbeddingTable(*parallel).ok());
}

TEST(SgnsTrainerTest, LossDecreasesOnToyCorpus) {
  auto sentences = TwoCommunityCorpus(50);
  SgnsConfig config = SmallConfig();
  config.epochs = 8;
  SgnsTrainStats stats;
  auto table = TrainSgns(sentences, 10, config, &stats);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(stats.epoch_loss.size(), 8u);
  EXPECT_GT(stats.pairs_trained, 0);
  // The structured corpus is learnable: the last epoch's mean loss must be
  // below the first epoch's (descent, not monotonicity, is the contract).
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
  for (double loss : stats.epoch_loss) EXPECT_TRUE(std::isfinite(loss));
}

TEST(SgnsTrainerTest, LearnsTheCommunityStructure) {
  auto sentences = TwoCommunityCorpus(80);
  SgnsConfig config = SmallConfig();
  config.epochs = 12;
  auto table = TrainSgns(sentences, 10, config);
  ASSERT_TRUE(table.ok());
  auto cosine = [&](size_t a, size_t b) {
    double dot = 0.0;
    for (uint32_t i = 0; i < table->dim; ++i) {
      dot += static_cast<double>(table->vec(a)[i]) *
             static_cast<double>(table->vec(b)[i]);
    }
    return dot / (static_cast<double>(table->norms[a]) *
                  static_cast<double>(table->norms[b]));
  };
  // Within-community similarity must beat cross-community similarity.
  double within = cosine(0, 1) + cosine(5, 6);
  double across = cosine(0, 5) + cosine(1, 6);
  EXPECT_GT(within, across);
}

TEST(SgnsTrainerTest, CheckpointResumeIsBitIdenticalToStraightRun) {
  std::string dir = TempPath("resume");
  auto sentences = TwoCommunityCorpus(30);
  SgnsConfig straight = SmallConfig();
  straight.epochs = 6;
  auto full = TrainSgns(sentences, 10, straight);
  ASSERT_TRUE(full.ok());

  // Probe how many FileOps::Write calls one checkpoint save issues, so the
  // injected "disk dies" lands exactly inside the fourth epoch's save.
  int writes_per_save = 0;
  {
    SgnsConfig probe = straight;
    probe.epochs = 1;
    probe.checkpoint_path = dir + "/probe.ckpt";
    FaultInjectingFileOps counting;
    ASSERT_TRUE(TrainSgns(sentences, 10, probe, nullptr, counting).ok());
    writes_per_save = counting.write_calls;
    ASSERT_GT(writes_per_save, 0);
  }

  // The same 6-epoch run, interrupted: the save after epoch 4 fails, so
  // the checkpoint on disk still holds epoch 3 (atomic write: a torn
  // attempt never replaces the previous file).
  SgnsConfig part = straight;
  part.checkpoint_path = dir + "/sgns.ckpt";
  FaultInjectingFileOps dying;
  dying.fail_write_after = 3 * writes_per_save;
  EXPECT_FALSE(TrainSgns(sentences, 10, part, nullptr, dying).ok());

  // Re-running the identical config resumes from the surviving checkpoint
  // and must reproduce the uninterrupted run bit-for-bit (1-thread RNG
  // streams are a pure function of (seed, epoch, shard), not of history).
  SgnsTrainStats stats;
  auto resumed = TrainSgns(sentences, 10, part, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(stats.epochs_resumed, 3);
  ASSERT_EQ(full->vectors.size(), resumed->vectors.size());
  EXPECT_EQ(std::memcmp(full->vectors.data(), resumed->vectors.data(),
                        full->vectors.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(full->norms.data(), resumed->norms.data(),
                        full->norms.size() * sizeof(float)),
            0);
}

TEST(SgnsTrainerTest, CheckpointConfigMismatchIsRejected) {
  std::string dir = TempPath("mismatch");
  auto sentences = TwoCommunityCorpus(20);
  SgnsConfig config = SmallConfig();
  config.checkpoint_path = dir + "/sgns.ckpt";
  ASSERT_TRUE(TrainSgns(sentences, 10, config).ok());
  // Same path, different hyperparameters: resuming would silently blend
  // two training schedules, so it must fail loudly instead.
  config.dim = 16;
  EXPECT_FALSE(TrainSgns(sentences, 10, config).ok());
}

TEST(SgnsTrainerTest, CorruptCheckpointIsRejected) {
  std::string dir = TempPath("corrupt");
  auto sentences = TwoCommunityCorpus(20);
  SgnsConfig config = SmallConfig();
  config.epochs = 2;
  config.checkpoint_path = dir + "/sgns.ckpt";
  ASSERT_TRUE(TrainSgns(sentences, 10, config).ok());
  // Flip one byte in the middle of the weight payload.
  std::string bytes;
  {
    std::ifstream in(config.checkpoint_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(config.checkpoint_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  config.epochs = 4;
  EXPECT_FALSE(TrainSgns(sentences, 10, config).ok());
}

}  // namespace
}  // namespace texrheo::embed
