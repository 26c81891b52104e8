// Tests for the redundancy detectors, leakage statistics, Figure-4 bitmap
// and dataset cleaners, on hand-crafted graphs with planted pathologies.

#include <gtest/gtest.h>

#include "redundancy/cleaner.h"
#include "redundancy/detectors.h"
#include "redundancy/leakage.h"
#include "util/string_util.h"

namespace kgc {
namespace {

// Entities 0..9. Relations:
//   r0 "likes":     0->1, 2->3, 4->5, 6->7
//   r1 "liked_by":  1->0, 3->2, 5->4, 7->6            (reverse of r0)
//   r2 "adores":    0->1, 2->3, 4->5, 6->9            (3/4 duplicate of r0)
//   r3 "married":   0->1, 1->0, 2->3, 3->2            (symmetric)
//   r4 "position":  {8,9} x {0,1,2}  (dense Cartesian product)
TripleList CraftedTriples() {
  TripleList triples;
  for (EntityId i = 0; i < 8; i += 2) {
    triples.push_back({i, 0, static_cast<EntityId>(i + 1)});
    triples.push_back({static_cast<EntityId>(i + 1), 1, i});
  }
  triples.push_back({0, 2, 1});
  triples.push_back({2, 2, 3});
  triples.push_back({4, 2, 5});
  triples.push_back({6, 2, 9});
  triples.push_back({0, 3, 1});
  triples.push_back({1, 3, 0});
  triples.push_back({2, 3, 3});
  triples.push_back({3, 3, 2});
  for (EntityId s = 8; s <= 9; ++s) {
    for (EntityId o = 0; o <= 2; ++o) {
      triples.push_back({s, 4, o});
    }
  }
  return triples;
}

TripleStore CraftedStore() { return TripleStore(CraftedTriples(), 10, 5); }

TEST(PairOverlapTest, IntersectionSizes) {
  const TripleStore store = CraftedStore();
  EXPECT_EQ(PairIntersectionSize(store.Pairs(0), store.Pairs(2)), 3u);
  EXPECT_EQ(PairReverseIntersectionSize(store.Pairs(0), store.Pairs(1)), 4u);
  EXPECT_EQ(PairReverseIntersectionSize(store.Pairs(3), store.Pairs(3)), 4u);
}

TEST(DetectorsTest, FindsDuplicates) {
  const TripleStore store = CraftedStore();
  DetectorOptions options;
  options.theta1 = 0.7;
  options.theta2 = 0.7;
  const auto duplicates = FindDuplicateRelations(store, options);
  ASSERT_EQ(duplicates.size(), 1u);
  EXPECT_EQ(duplicates[0].r1, 0);
  EXPECT_EQ(duplicates[0].r2, 2);
  EXPECT_DOUBLE_EQ(duplicates[0].coverage_r1, 0.75);
  EXPECT_DOUBLE_EQ(duplicates[0].coverage_r2, 0.75);
}

TEST(DetectorsTest, DuplicateThresholdIsStrict) {
  const TripleStore store = CraftedStore();
  DetectorOptions options;
  options.theta1 = 0.75;  // coverage must be STRICTLY above theta
  options.theta2 = 0.75;
  EXPECT_TRUE(FindDuplicateRelations(store, options).empty());
}

TEST(DetectorsTest, FindsReversePairs) {
  const TripleStore store = CraftedStore();
  const auto reverses = FindReverseDuplicateRelations(store);
  ASSERT_EQ(reverses.size(), 1u);
  EXPECT_EQ(reverses[0].r1, 0);
  EXPECT_EQ(reverses[0].r2, 1);
  EXPECT_DOUBLE_EQ(reverses[0].coverage_r1, 1.0);
}

TEST(DetectorsTest, FindsSymmetricRelations) {
  const TripleStore store = CraftedStore();
  const auto symmetric = FindSymmetricRelations(store);
  ASSERT_EQ(symmetric.size(), 1u);
  EXPECT_EQ(symmetric[0].r1, 3);
}

TEST(DetectorsTest, FindsCartesianRelations) {
  const TripleStore store = CraftedStore();
  const auto cartesian = FindCartesianRelations(store);
  ASSERT_EQ(cartesian.size(), 1u);
  EXPECT_EQ(cartesian[0].relation, 4);
  EXPECT_EQ(cartesian[0].num_subjects, 2u);
  EXPECT_EQ(cartesian[0].num_objects, 3u);
  EXPECT_DOUBLE_EQ(cartesian[0].density, 1.0);
}

TEST(DetectorsTest, MinRelationSizeSkipsTinyRelations) {
  TripleStore store({{0, 0, 1}}, 2, 1);
  DetectorOptions options;
  options.min_relation_size = 2;
  EXPECT_TRUE(FindCartesianRelations(store, options).empty());
  options.min_relation_size = 1;
  EXPECT_EQ(FindCartesianRelations(store, options).size(), 1u);
}

TEST(CatalogTest, DetectAndPartnerLookup) {
  const TripleStore store = CraftedStore();
  DetectorOptions options;
  options.theta1 = 0.7;
  options.theta2 = 0.7;
  const RedundancyCatalog catalog = RedundancyCatalog::Detect(store, options);
  EXPECT_EQ(catalog.ReversePartners(0), std::vector<RelationId>{1});
  // r2 is also a reverse-duplicate of r1 at theta = 0.7 (3/4 of r2's pairs
  // reversed appear in r1): "adores" mirrors "liked_by" on 0,2,4.
  EXPECT_EQ(catalog.ReversePartners(1), (std::vector<RelationId>{0, 2}));
  EXPECT_EQ(catalog.DuplicatePartners(0), std::vector<RelationId>{2});
  EXPECT_TRUE(catalog.IsSymmetric(3));
  EXPECT_FALSE(catalog.IsSymmetric(0));
}

// --- Leakage + bitmap ----------------------------------------------------

Dataset CraftedDataset() {
  Vocab vocab;
  for (int i = 0; i < 10; ++i) {
    vocab.InternEntity(StrFormat("e%d", i));
  }
  for (const char* name : {"likes", "liked_by", "adores", "married", "pos"}) {
    vocab.InternRelation(name);
  }
  // Train = crafted triples minus the ones moved to test below.
  TripleList train = CraftedTriples();
  // Test: (6,0,7) has reverse (7,1,6) in train; (4,2,5)'s base (4,0,5) is a
  // duplicate in train; (5,3,4) has no counterpart anywhere.
  TripleList test = {{6, 0, 7}, {4, 2, 5}, {5, 3, 4}};
  std::erase(train, Triple{6, 0, 7});
  std::erase(train, Triple{4, 2, 5});
  return Dataset("crafted", vocab, train, {}, test);
}

RedundancyCatalog CraftedCatalog() {
  RedundancyCatalog catalog;
  catalog.reverse_pairs.push_back({0, 1, 1.0, 1.0});
  catalog.duplicate_pairs.push_back({0, 2, 0.75, 0.75});
  catalog.symmetric_relations.push_back(3);
  return catalog;
}

TEST(LeakageTest, ReverseLeakageStats) {
  const Dataset dataset = CraftedDataset();
  const ReverseLeakageStats stats =
      ComputeReverseLeakage(dataset, CraftedCatalog());
  // In train, r0/r1 triples 3+4 = 7; of those, 3 r0 triples have their r1
  // reverse in train and all 4 r1 triples have their r0 reverse... except
  // (7,1,6) whose base moved to test. Symmetric r3: all 4 have reverses.
  EXPECT_EQ(stats.train_triples_in_reverse_pairs, 10u);
  // Test triple (6,0,7) finds (7,1,6) in train; the others do not.
  EXPECT_EQ(stats.test_triples_with_reverse_in_train, 1u);
  EXPECT_NEAR(stats.test_reverse_fraction, 1.0 / 3.0, 1e-9);
}

TEST(BitmapTest, ClassifiesTestTriples) {
  const Dataset dataset = CraftedDataset();
  const RedundancyBitmap bitmap =
      ComputeRedundancyBitmap(dataset, CraftedCatalog());
  ASSERT_EQ(bitmap.cases.size(), 3u);
  // (6,0,7): reverse in train (bit 3) + duplicate (6,2,9)? No: duplicate
  // partner of r0 is r2 and (6,2,9) != (6,2,7), so no dup. Case 1000.
  EXPECT_EQ(RedundancyCaseName(bitmap.cases[0]), "1000");
  // (4,2,5): duplicate partner r0 has (4,0,5) in train. Case 0100.
  EXPECT_EQ(RedundancyCaseName(bitmap.cases[1]), "0100");
  // (5,3,4): symmetric, but (4,3,5) is not in train or test. Case 0000.
  EXPECT_EQ(RedundancyCaseName(bitmap.cases[2]), "0000");
  EXPECT_EQ(bitmap.histogram[0b1000], 1u);
  EXPECT_EQ(bitmap.histogram[0b0100], 1u);
  EXPECT_EQ(bitmap.histogram[0], 1u);
  EXPECT_EQ(bitmap.reverse_in_train, 1u);
  EXPECT_EQ(bitmap.duplicate_in_train, 1u);
}

TEST(BitmapTest, SymmetricReverseInTestDetected) {
  Vocab vocab;
  for (int i = 0; i < 4; ++i) vocab.InternEntity(StrFormat("e%d", i));
  vocab.InternRelation("sym");
  RedundancyCatalog catalog;
  catalog.symmetric_relations.push_back(0);
  // Both directions in the test split; neither in train.
  Dataset dataset("d", vocab, {{2, 0, 3}}, {}, {{0, 0, 1}, {1, 0, 0}});
  const RedundancyBitmap bitmap = ComputeRedundancyBitmap(dataset, catalog);
  EXPECT_EQ(RedundancyCaseName(bitmap.cases[0]), "0010");
  EXPECT_EQ(RedundancyCaseName(bitmap.cases[1]), "0010");
}

TEST(BitmapTest, CaseNameRendering) {
  EXPECT_EQ(RedundancyCaseName(0), "0000");
  EXPECT_EQ(RedundancyCaseName(0b1100), "1100");
  EXPECT_EQ(RedundancyCaseName(0b1111), "1111");
  EXPECT_TRUE(HasTrainRedundancy(0b0100));
  EXPECT_TRUE(HasTrainRedundancy(0b1000));
  EXPECT_FALSE(HasTrainRedundancy(0b0011));
}

// --- Cleaners -------------------------------------------------------------

TEST(CleanerTest, Fb237DropsRedundantRelationsAndLinkedTestTriples) {
  const Dataset dataset = CraftedDataset();
  CleaningReport report;
  const Dataset cleaned =
      MakeFb237Like(dataset, CraftedCatalog(), "cleaned", &report);
  EXPECT_EQ(cleaned.name(), "cleaned");
  // r2 (duplicate of r0, tie broken to the higher id) is dropped, then r0
  // (reverse pair with r1; r1 has more training triples since (6,0,7) moved
  // to the test split) is dropped too.
  EXPECT_EQ(report.dropped_relations.size(), 2u);
  for (const Triple& t : cleaned.train()) {
    EXPECT_NE(t.relation, 0);
    EXPECT_NE(t.relation, 2);
  }
  // Test triples: (6,0,7) and (4,2,5) fall with their relations; (5,3,4) is
  // entity-linked in train through (5,1,4), so the linked-pair filter
  // removes it as well.
  EXPECT_TRUE(cleaned.test().empty());
}

TEST(CleanerTest, Fb237RemovesTestTriplesLinkedInTrain) {
  Vocab vocab;
  for (int i = 0; i < 4; ++i) vocab.InternEntity(StrFormat("e%d", i));
  vocab.InternRelation("a");
  vocab.InternRelation("b");
  RedundancyCatalog empty_catalog;
  // (0,b,1) in test while (0,a,1) in train: linked, must go.
  // (2,b,3) has no link: stays.
  Dataset dataset("d", vocab, {{0, 0, 1}}, {}, {{0, 1, 1}, {2, 1, 3}});
  CleaningReport report;
  const Dataset cleaned = MakeFb237Like(dataset, empty_catalog, "c", &report);
  ASSERT_EQ(cleaned.test().size(), 1u);
  EXPECT_EQ(cleaned.test()[0], (Triple{2, 1, 3}));
  EXPECT_EQ(report.test_removed, 1u);
}

TEST(CleanerTest, Wn18rrKeepsSymmetricRelations) {
  const Dataset dataset = CraftedDataset();
  CleaningReport report;
  const Dataset cleaned =
      MakeWn18rrLike(dataset, CraftedCatalog(), "rr", &report);
  // Only the reverse pair is collapsed; duplicates and symmetric survive.
  EXPECT_EQ(report.dropped_relations.size(), 1u);
  bool has_symmetric = false, has_duplicate = false;
  for (const Triple& t : cleaned.train()) {
    if (t.relation == 3) has_symmetric = true;
    if (t.relation == 2) has_duplicate = true;
  }
  EXPECT_TRUE(has_symmetric);
  EXPECT_TRUE(has_duplicate);
  // No entity-pair-linked filtering for WN18RR: only the test triple of the
  // dropped relation (r0, which has fewer training triples than r1) goes.
  EXPECT_EQ(cleaned.test().size(), dataset.test().size() - 1);
}

TEST(CleanerTest, YagoDrDropsDuplicateAndDedupsSymmetric) {
  Vocab vocab;
  for (int i = 0; i < 6; ++i) vocab.InternEntity(StrFormat("e%d", i));
  vocab.InternRelation("isAffiliatedTo");
  vocab.InternRelation("playsFor");
  vocab.InternRelation("isMarriedTo");
  RedundancyCatalog catalog;
  catalog.duplicate_pairs.push_back({0, 1, 0.9, 0.9});
  catalog.symmetric_relations.push_back(2);
  TripleList train = {
      {0, 0, 1}, {2, 0, 3},            // isAffiliatedTo
      {0, 1, 1},                       // playsFor (duplicate)
      {4, 2, 5}, {5, 2, 4},            // isMarriedTo both directions
  };
  // Symmetric test triple whose pair is linked in train -> removed.
  TripleList test = {{4, 2, 5}};
  Dataset dataset("y", vocab, train, {}, test);
  CleaningReport report;
  const Dataset cleaned = MakeYagoDrLike(dataset, catalog, "dr", &report);
  // playsFor dropped entirely; one direction of the married pair dropped.
  size_t plays_for = 0, married = 0;
  for (const Triple& t : cleaned.train()) {
    if (t.relation == 1) ++plays_for;
    if (t.relation == 2) ++married;
  }
  EXPECT_EQ(plays_for, 0u);
  EXPECT_EQ(married, 1u);
  EXPECT_TRUE(cleaned.test().empty());
}

}  // namespace
}  // namespace kgc
