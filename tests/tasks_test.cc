// Tests for the auxiliary completion tasks (triple classification, relation
// prediction) and the OpenKE-format I/O.

#include <gtest/gtest.h>

#include <filesystem>

#include "datagen/presets.h"
#include "eval/relation_prediction.h"
#include "eval/triple_classification.h"
#include "kg/kg_io.h"
#include "models/trainer.h"
#include "util/file_util.h"

namespace kgc {
namespace {

std::unique_ptr<KgeModel> TrainedTinyModel(const SyntheticKg& kg,
                                           ModelType type) {
  ModelHyperParams params = DefaultHyperParams(type);
  params.dim = 16;
  auto model = CreateModel(type, kg.dataset.num_entities(),
                           kg.dataset.num_relations(), params);
  TrainOptions options = DefaultTrainOptions(type);
  options.epochs = 25;
  options.seed = 4;
  TrainModel(*model, kg.dataset, options);
  return model;
}

TEST(TripleClassificationTest, TrainedModelBeatsCoinFlip) {
  const SyntheticKg kg = GenerateTiny(31);
  const auto model = TrainedTinyModel(kg, ModelType::kComplEx);
  const TripleClassificationResult result =
      EvaluateTripleClassification(*model, kg.dataset);
  EXPECT_EQ(result.num_test_pairs, kg.dataset.test().size());
  EXPECT_GT(result.accuracy, 0.6);
  EXPECT_LE(result.accuracy, 1.0);
  EXPECT_EQ(result.thresholds.size(),
            static_cast<size_t>(kg.dataset.num_relations()));
}

TEST(TripleClassificationTest, UntrainedModelNearChance) {
  const SyntheticKg kg = GenerateTiny(31);
  ModelHyperParams params = DefaultHyperParams(ModelType::kDistMult);
  params.dim = 16;
  const auto model =
      CreateModel(ModelType::kDistMult, kg.dataset.num_entities(),
                  kg.dataset.num_relations(), params);
  const TripleClassificationResult result =
      EvaluateTripleClassification(*model, kg.dataset);
  // Random scores: the learned thresholds overfit validation a bit, but
  // test accuracy must hover near 0.5.
  EXPECT_GT(result.accuracy, 0.3);
  EXPECT_LT(result.accuracy, 0.7);
}

TEST(TripleClassificationTest, DeterministicForSeed) {
  const SyntheticKg kg = GenerateTiny(31);
  const auto model = TrainedTinyModel(kg, ModelType::kDistMult);
  TripleClassificationOptions options;
  options.seed = 7;
  const auto a = EvaluateTripleClassification(*model, kg.dataset, options);
  const auto b = EvaluateTripleClassification(*model, kg.dataset, options);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(RelationPredictionTest, TrainedModelRanksTrueRelationHighly) {
  const SyntheticKg kg = GenerateTiny(31);
  const auto model = TrainedTinyModel(kg, ModelType::kComplEx);
  const LinkPredictionMetrics metrics =
      EvaluateRelationPrediction(*model, kg.dataset);
  EXPECT_EQ(metrics.num_triples, kg.dataset.test().size());
  // 8 relations in tiny-syn: random MR would be ~4.5.
  EXPECT_LT(metrics.fmr, 3.5);
  EXPECT_GT(metrics.fmrr, 0.4);
  EXPECT_GE(metrics.fmrr, metrics.mrr);
}

TEST(RelationPredictionTest, EmptyTestIsZero) {
  Vocab vocab;
  vocab.InternEntity("a");
  vocab.InternRelation("r");
  const Dataset dataset("d", vocab, {{0, 0, 0}}, {}, {});
  const auto model = CreateModel(ModelType::kDistMult, 1, 1,
                                 DefaultHyperParams(ModelType::kDistMult));
  const LinkPredictionMetrics metrics =
      EvaluateRelationPrediction(*model, dataset);
  EXPECT_EQ(metrics.num_triples, 0u);
}

// --- OpenKE format I/O. -----------------------------------------------------

TEST(OpenKeIoTest, RoundTripPreservesEverything) {
  const SyntheticKg kg = GenerateTiny(12);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kgc_openke_rt").string();
  ASSERT_TRUE(SaveOpenKeDataset(kg.dataset, dir).ok());
  auto loaded = LoadOpenKeDataset(dir, "reloaded");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_entities(), kg.dataset.num_entities());
  EXPECT_EQ(loaded->num_relations(), kg.dataset.num_relations());
  EXPECT_EQ(loaded->train(), kg.dataset.train());
  EXPECT_EQ(loaded->valid(), kg.dataset.valid());
  EXPECT_EQ(loaded->test(), kg.dataset.test());
  // Symbol names survive (ids were interned in id order).
  EXPECT_EQ(loaded->vocab().EntityName(0), kg.dataset.vocab().EntityName(0));
  std::filesystem::remove_all(dir);
}

TEST(OpenKeIoTest, RejectsBadCountHeader) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kgc_openke_bad").string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(
      WriteStringToFile(dir + "/entity2id.txt", "3\nfoo\t0\nbar\t1\n").ok());
  auto loaded = LoadOpenKeDataset(dir, "bad");
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove_all(dir);
}

TEST(OpenKeIoTest, RejectsOutOfRangeIds) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kgc_openke_oor").string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(
      WriteStringToFile(dir + "/entity2id.txt", "2\na\t0\nb\t1\n").ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/relation2id.txt", "1\nr\t0\n").ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/train2id.txt", "1\n0 5 0\n").ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/valid2id.txt", "0\n").ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/test2id.txt", "0\n").ok());
  auto loaded = LoadOpenKeDataset(dir, "oor");
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove_all(dir);
}

TEST(OpenKeIoTest, RejectsNonDenseIds) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kgc_openke_dense").string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(
      WriteStringToFile(dir + "/entity2id.txt", "2\na\t0\nb\t2\n").ok());
  auto loaded = LoadOpenKeDataset(dir, "dense");
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace kgc
