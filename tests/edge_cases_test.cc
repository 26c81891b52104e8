// Edge-case tests across modules: empty inputs, degenerate graphs, cache
// poisoning, and boundary conditions not covered by the main suites.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/experiment_context.h"
#include "eval/ranker.h"
#include "models/model_store.h"
#include "redundancy/cleaner.h"
#include "rules/amie.h"
#include "rules/simple_rule_model.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace kgc {
namespace {

// --- Degenerate stores. ---------------------------------------------------

TEST(EdgeCaseTest, EmptyTripleStore) {
  const TripleStore store({}, 5, 3);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.ByRelation(0).empty());
  EXPECT_TRUE(store.Pairs(2).empty());
  EXPECT_FALSE(store.Contains(0, 0, 0));
  EXPECT_FALSE(store.AnyRelationLinks(1, 2));
}

TEST(EdgeCaseTest, SelfLoopTriples) {
  // (a, r, a) self-loops must not trip the symmetric detector by
  // themselves or be counted as their own reverse.
  const TripleStore store({{0, 0, 0}, {1, 0, 1}, {2, 0, 3}}, 5, 1);
  const auto symmetric = FindSymmetricRelations(store);
  // 2/3 of pairs are self-loops (their own reverses): coverage 2/3 < 0.8.
  EXPECT_TRUE(symmetric.empty());

  Vocab vocab;
  for (int i = 0; i < 5; ++i) vocab.InternEntity(std::to_string(i));
  vocab.InternRelation("r");
  RedundancyCatalog catalog;
  catalog.symmetric_relations.push_back(0);
  Dataset dataset("d", vocab, {{0, 0, 0}}, {}, {{1, 0, 1}});
  const ReverseLeakageStats leakage =
      ComputeReverseLeakage(dataset, catalog);
  EXPECT_EQ(leakage.train_triples_in_reverse_pairs, 0u);
  EXPECT_EQ(leakage.test_triples_with_reverse_in_train, 0u);
}

TEST(EdgeCaseTest, SingleEntityRanking) {
  // A 2-entity graph: ranking must still produce valid ranks.
  Vocab vocab;
  vocab.InternEntity("a");
  vocab.InternEntity("b");
  vocab.InternRelation("r");
  Dataset dataset("d", vocab, {{0, 0, 1}}, {}, {{1, 0, 0}});
  const SimpleRuleModel model(dataset.train_store(), 0.8);
  const auto ranks = RankTriples(model, dataset, dataset.test());
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_GE(ranks[0].head_raw, 1.0);
  EXPECT_LE(ranks[0].head_raw, 2.0);
}

// --- Cleaning edge cases. --------------------------------------------------

TEST(EdgeCaseTest, CleanerWithEmptyCatalogIsAlmostIdentity) {
  Vocab vocab;
  for (int i = 0; i < 6; ++i) vocab.InternEntity(std::to_string(i));
  vocab.InternRelation("r");
  // Test triples share no entity pair with training.
  Dataset dataset("d", vocab, {{0, 0, 1}}, {{2, 0, 3}}, {{4, 0, 5}});
  const RedundancyCatalog empty;
  const Dataset cleaned = MakeFb237Like(dataset, empty, "c");
  EXPECT_EQ(cleaned.train().size(), 1u);
  EXPECT_EQ(cleaned.valid().size(), 1u);
  EXPECT_EQ(cleaned.test().size(), 1u);
}

TEST(EdgeCaseTest, ChainedDuplicatesCollapseToOneSurvivor) {
  // r0 ~ r1 ~ r2 all mutually duplicate: exactly one survives.
  TripleList train;
  for (EntityId i = 0; i < 10; ++i) {
    for (RelationId r = 0; r < 3; ++r) {
      train.push_back({i, r, static_cast<EntityId>(i + 10)});
    }
  }
  Vocab vocab;
  for (int i = 0; i < 20; ++i) vocab.InternEntity(std::to_string(i));
  for (int r = 0; r < 3; ++r) vocab.InternRelation(StrFormat("r%d", r));
  Dataset dataset("d", vocab, train, {}, {});
  const RedundancyCatalog catalog =
      RedundancyCatalog::Detect(dataset.all_store());
  ASSERT_EQ(catalog.duplicate_pairs.size(), 3u);  // (0,1), (0,2), (1,2)
  CleaningReport report;
  const Dataset cleaned = MakeFb237Like(dataset, catalog, "c", &report);
  EXPECT_EQ(report.dropped_relations.size(), 2u);
  EXPECT_EQ(cleaned.train().size(), 10u);
}

// --- Rule mining edge cases. ------------------------------------------------

TEST(EdgeCaseTest, AmieOnEmptyStoreYieldsNoRules) {
  const TripleStore store({}, 4, 2);
  EXPECT_TRUE(MineRules(store).empty());
}

TEST(EdgeCaseTest, AmiePredictorWithNoRulesScoresZero) {
  const TripleStore store({{0, 0, 1}}, 4, 1);
  const RulePredictor predictor({}, store);
  std::vector<float> scores(4);
  predictor.ScoreTails(0, 0, scores);
  for (float s : scores) EXPECT_EQ(s, 0.0f);
}

TEST(EdgeCaseTest, AmiePcaConfidenceWithPartialSubjectCoverage) {
  // Body r0 has subjects {0, 2}; head r1 only has subject 0 => the PCA
  // denominator counts only body pairs whose x is a known r1 subject.
  TripleList triples = {{0, 0, 1}, {2, 0, 3}, {0, 1, 1}};
  const TripleStore store(triples, 5, 2);
  AmieOptions options;
  options.min_support = 1;
  options.min_head_coverage = 0.0;
  options.min_confidence = 0.0;
  const auto rules = MineRules(store, options);
  bool found = false;
  for (const Rule& rule : rules) {
    if (rule.kind == RuleBodyKind::kSame && rule.body1 == 0 &&
        rule.head == 1) {
      found = true;
      EXPECT_DOUBLE_EQ(rule.std_confidence, 0.5);  // 1 of 2 body pairs
      EXPECT_DOUBLE_EQ(rule.pca_confidence, 1.0);  // denominator = 1
    }
  }
  EXPECT_TRUE(found);
}

// --- Cache robustness. -----------------------------------------------------

TEST(EdgeCaseTest, ModelStoreRejectsCorruptFiles) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kgc_store_corrupt").string();
  const ModelStore store(dir);
  ASSERT_TRUE(
      WriteStringToFile(dir + "/bad.kgcm", "definitely not a model").ok());
  EXPECT_FALSE(store.Load("bad").ok());
  std::filesystem::remove_all(dir);
}

TEST(EdgeCaseTest, ModelStoreMissWhenShapeChanges) {
  // A cached model for a different entity count must not be served blindly;
  // ExperimentContext re-checks shapes, and Load itself succeeds with the
  // stored shape -- verify the stored shape is faithful.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kgc_store_shape").string();
  const ModelStore store(dir);
  const ModelHyperParams params = DefaultHyperParams(ModelType::kDistMult);
  const auto model = CreateModel(ModelType::kDistMult, 7, 3, params);
  ASSERT_TRUE(store.Save("m", *model).ok());
  auto loaded = store.Load("m");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->num_entities(), 7);
  EXPECT_EQ((*loaded)->num_relations(), 3);
  std::filesystem::remove_all(dir);
}

// --- Ranker order preservation. ---------------------------------------------

TEST(EdgeCaseTest, RankerPreservesInputOrderDespiteRelationGrouping) {
  Vocab vocab;
  for (int i = 0; i < 6; ++i) vocab.InternEntity(std::to_string(i));
  vocab.InternRelation("a");
  vocab.InternRelation("b");
  Dataset dataset("d", vocab, {{0, 0, 1}, {2, 1, 3}}, {},
                  {{2, 1, 3}, {0, 0, 1}, {4, 1, 5}});
  const SimpleRuleModel model(dataset.train_store(), 0.8);
  const auto ranks = RankTriples(model, dataset, dataset.test());
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_EQ(ranks[0].triple, (Triple{2, 1, 3}));
  EXPECT_EQ(ranks[1].triple, (Triple{0, 0, 1}));
  EXPECT_EQ(ranks[2].triple, (Triple{4, 1, 5}));
}

}  // namespace
}  // namespace kgc
