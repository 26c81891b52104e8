// Tests for the AMIE-style miner, the simple rule model and the Cartesian
// predictor.

#include <gtest/gtest.h>

#include <algorithm>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "rules/amie.h"
#include "rules/cartesian_predictor.h"
#include "rules/simple_rule_model.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgc {
namespace {

// Entities 0..11. Relations:
//   r0 "born_in":   0->8, 1->8, 2->9, 3->9, 4->10
//   r1 "lives_in":  0->8, 1->8, 2->9, 3->11, 4->10   (4/5 same as r0)
//   r2 "citizen_of_inv": 8->0, 8->1, 9->2, 10->4     (reverse of r0 mostly)
//   r3 "parent":    5->0, 6->2
//   r4 "grandparent_city" (via parent + born_in): 5->8, 6->9
TripleStore RuleStore() {
  TripleList triples = {
      {0, 0, 8}, {1, 0, 8}, {2, 0, 9}, {3, 0, 9}, {4, 0, 10},
      {0, 1, 8}, {1, 1, 8}, {2, 1, 9}, {3, 1, 11}, {4, 1, 10},
      {8, 2, 0}, {8, 2, 1}, {9, 2, 2}, {10, 2, 4},
      {5, 3, 0}, {6, 3, 2},
      {5, 4, 8}, {6, 4, 9},
  };
  return TripleStore(triples, 12, 5);
}

AmieOptions LooseOptions() {
  AmieOptions options;
  options.min_support = 2;
  options.min_head_coverage = 0.01;
  options.min_confidence = 0.3;
  return options;
}

const Rule* FindRule(const std::vector<Rule>& rules, RuleBodyKind kind,
                     RelationId body1, RelationId head,
                     RelationId body2 = -1) {
  for (const Rule& rule : rules) {
    if (rule.kind == kind && rule.body1 == body1 && rule.head == head &&
        (kind != RuleBodyKind::kPath || rule.body2 == body2)) {
      return &rule;
    }
  }
  return nullptr;
}

TEST(AmieTest, MinesSameDirectionRule) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  // lives_in(x,y) => born_in(x,y): support 4, body 5, conf 0.8.
  const Rule* rule = FindRule(rules, RuleBodyKind::kSame, 1, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->support, 4u);
  EXPECT_EQ(rule->body_size, 5u);
  EXPECT_DOUBLE_EQ(rule->std_confidence, 0.8);
  // Every body subject has a born_in fact -> PCA denominator = body size.
  EXPECT_DOUBLE_EQ(rule->pca_confidence, 0.8);
  EXPECT_DOUBLE_EQ(rule->head_coverage, 0.8);
}

TEST(AmieTest, MinesInverseRule) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  // citizen_of_inv(y,x) => born_in(x,y): support 4, body 4, conf 1.0.
  const Rule* rule = FindRule(rules, RuleBodyKind::kInverse, 2, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->support, 4u);
  EXPECT_DOUBLE_EQ(rule->std_confidence, 1.0);
}

TEST(AmieTest, MinesPathRule) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  // parent(x,z) ^ born_in(z,y) => grandparent_city(x,y): support 2/2.
  const Rule* rule = FindRule(rules, RuleBodyKind::kPath, 3, 4, 0);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->support, 2u);
  EXPECT_EQ(rule->body_size, 2u);
  EXPECT_DOUBLE_EQ(rule->std_confidence, 1.0);
}

TEST(AmieTest, NoTautologicalSameRule) {
  const auto rules = MineRules(RuleStore(), LooseOptions());
  EXPECT_EQ(FindRule(rules, RuleBodyKind::kSame, 0, 0), nullptr);
}

TEST(AmieTest, ThresholdsPrune) {
  AmieOptions strict = LooseOptions();
  strict.min_confidence = 0.95;
  const auto rules = MineRules(RuleStore(), strict);
  EXPECT_EQ(FindRule(rules, RuleBodyKind::kSame, 1, 0), nullptr);
  EXPECT_NE(FindRule(rules, RuleBodyKind::kInverse, 2, 0), nullptr);
}

TEST(AmieTest, RuleToStringRendersAllShapes) {
  Vocab vocab;
  for (const char* name : {"a", "b", "c"}) vocab.InternRelation(name);
  Rule rule;
  rule.kind = RuleBodyKind::kPath;
  rule.body1 = 0;
  rule.body2 = 1;
  rule.head = 2;
  const std::string text = rule.ToString(vocab);
  EXPECT_NE(text.find("a(x,z) ^ b(z,y) => c(x,y)"), std::string::npos);
}

TEST(RulePredictorTest, RanksRuleDerivedCandidatesFirst) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  const RulePredictor predictor(rules, store, LooseOptions());

  // Query (3, born_in, ?): lives_in(3, 11) fires the same-direction rule,
  // so entity 11 should out-score entities with no rule support.
  std::vector<float> scores(12);
  predictor.ScoreTails(3, 0, scores);
  EXPECT_GT(scores[11], 0.0f);
  EXPECT_GT(scores[11], scores[5]);

  // Query (?, born_in, 8): citizen_of_inv(8, {0,1}) fires the inverse rule.
  predictor.ScoreHeads(0, 8, scores);
  EXPECT_GT(scores[0], 0.0f);
  EXPECT_GT(scores[1], 0.0f);
  EXPECT_EQ(scores[7], 0.0f);
}

TEST(RulePredictorTest, PathRulePrediction) {
  const TripleStore store = RuleStore();
  const auto rules = MineRules(store, LooseOptions());
  const RulePredictor predictor(rules, store, LooseOptions());
  // (5, grandparent_city, ?) via parent(5,0) ^ born_in(0,8).
  std::vector<float> scores(12);
  predictor.ScoreTails(5, 4, scores);
  EXPECT_GT(scores[8], 0.0f);
  EXPECT_EQ(scores[10], 0.0f);
}

// --- MineRules against the brute-force oracle ------------------------------

// Random store with planted rules over 200 entities: r1 copies ~70% of r0
// (same), r2 reverses ~70% of r0 (inverse), r4 composes r0 then r3 on ~60%
// of the two-hop pairs (path), r5 is noise. Entity 0 is a hub mediator
// (150 r5 facts in, 150 r3 facts out: 22500 combinations), and ~5% of the
// facts are stored twice.
TripleStore RandomRuleStore(uint64_t seed) {
  constexpr int32_t kEntities = 200;
  Rng rng(seed);
  auto entity = [&] {
    return static_cast<EntityId>(rng.UniformInt(1, kEntities - 1));
  };
  TripleList triples;
  for (int i = 0; i < 120; ++i) triples.push_back({entity(), 0, entity()});
  for (int i = 0; i < 120; ++i) triples.push_back({entity(), 3, entity()});
  for (int i = 0; i < 60; ++i) triples.push_back({entity(), 5, entity()});
  const TripleList base = triples;
  for (const Triple& a : base) {
    if (a.relation != 0) continue;
    if (rng.UniformDouble() < 0.7) triples.push_back({a.head, 1, a.tail});
    if (rng.UniformDouble() < 0.7) triples.push_back({a.tail, 2, a.head});
    for (const Triple& b : base) {
      if (b.relation == 3 && b.head == a.tail && rng.UniformDouble() < 0.6) {
        triples.push_back({a.head, 4, b.tail});
      }
    }
  }
  for (EntityId e = 1; e <= 150; ++e) {
    triples.push_back({e, 5, 0});
    triples.push_back({0, 3, e});
  }
  const size_t n = triples.size();
  for (size_t i = 0; i < n; ++i) {
    if (rng.Uniform(20) == 0) triples.push_back(triples[i]);
  }
  return TripleStore(triples, kEntities, 6);
}

std::string Describe(const Rule& r) {
  return StrFormat("{kind %d body %d,%d head %d supp %zu body %zu %a %a %a}",
                   static_cast<int>(r.kind), r.body1, r.body2, r.head,
                   r.support, r.body_size, r.std_confidence,
                   r.pca_confidence, r.head_coverage);
}

void ExpectSameRules(const std::vector<Rule>& mined,
                     const std::vector<Rule>& oracle) {
  ASSERT_EQ(mined.size(), oracle.size());
  for (size_t i = 0; i < mined.size(); ++i) {
    EXPECT_EQ(Describe(mined[i]), Describe(oracle[i])) << "rule " << i;
  }
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Get().GetCounter(name).value();
}

TEST(AmieOracleTest, MatchesBruteForceMiner) {
  AmieOptions loose = LooseOptions();
  loose.min_confidence = 0.0;
  loose.min_head_coverage = 0.0;
  AmieOptions by_std = loose;
  by_std.use_pca_confidence = false;
  AmieOptions budget = loose;
  budget.max_path_combinations = 300;
  const AmieOptions defaults;

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const TripleStore store = RandomRuleStore(seed);
    for (const AmieOptions& base : {loose, by_std, budget, defaults}) {
      const std::vector<Rule> oracle = bench::NaiveMineRules(store, base);
      SCOPED_TRACE(StrFormat("seed %llu max_path_combinations %zu "
                             "min_support %zu pca %d",
                             static_cast<unsigned long long>(seed),
                             base.max_path_combinations, base.min_support,
                             static_cast<int>(base.use_pca_confidence)));
      obs::Registry::Get().ResetAllForTest();
      ExpectSameRules(MineRules(store, base), oracle);
      EXPECT_EQ(CounterValue(obs::kAmieRulesKept), oracle.size());
      EXPECT_EQ(CounterValue(obs::kAmieHubMediators), 1u);
      if (base.max_path_combinations == budget.max_path_combinations) {
        // The budget cuts the enumeration midway, not before it starts.
        EXPECT_GT(CounterValue(obs::kAmieBudgetCutMediators), 0u);
        EXPECT_GT(CounterValue(obs::kAmiePathPairs), 0u);
      } else {
        EXPECT_EQ(CounterValue(obs::kAmieBudgetCutMediators), 0u);
      }
    }
    // The loose setting mines every rule shape.
    const std::vector<Rule> rules = bench::NaiveMineRules(store, loose);
    for (RuleBodyKind kind : {RuleBodyKind::kSame, RuleBodyKind::kInverse,
                              RuleBodyKind::kPath}) {
      EXPECT_TRUE(std::any_of(rules.begin(), rules.end(),
                              [&](const Rule& r) { return r.kind == kind; }))
          << "seed " << seed << " kind " << static_cast<int>(kind);
    }
  }
  obs::Registry::Get().ResetAllForTest();
}

TEST(AmieOracleTest, DuplicateFactsCountTwice) {
  // r1 repeats both r0 pairs, one of them twice: support 3 over 2 pairs.
  TripleList triples = {{0, 0, 1}, {2, 0, 3}, {0, 1, 1},
                        {2, 1, 3}, {2, 1, 3}};
  const TripleStore store(triples, 4, 2);
  AmieOptions options;
  options.min_support = 1;
  const std::vector<Rule> mined = MineRules(store, options);
  ExpectSameRules(mined, bench::NaiveMineRules(store, options));
  const Rule* rule = FindRule(mined, RuleBodyKind::kSame, 0, 1);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->support, 3u);
  EXPECT_EQ(rule->body_size, 2u);
}

// --- SimpleRuleModel -------------------------------------------------------

TEST(SimpleRuleModelTest, PredictsViaReversePartner) {
  // r0 and r1 exact reverses.
  TripleList triples;
  for (EntityId i = 0; i < 6; i += 2) {
    triples.push_back({i, 0, static_cast<EntityId>(i + 1)});
    triples.push_back({static_cast<EntityId>(i + 1), 1, i});
  }
  const TripleStore store(triples, 6, 2);
  const SimpleRuleModel model(store, 0.8);

  std::vector<float> scores(6);
  // (0, r0, ?): reverse partner r1 has (1, r1, 0) -> predict 1.
  model.ScoreTails(0, 0, scores);
  EXPECT_EQ(scores[1], 1.0f);
  EXPECT_EQ(scores[2], 0.0f);
  // (?, r1, 2): reverse partner r0 has (2, r0, 3) -> predict 3.
  model.ScoreHeads(1, 2, scores);
  EXPECT_EQ(scores[3], 1.0f);
}

TEST(SimpleRuleModelTest, PredictsViaDuplicateAndSymmetric) {
  RedundancyCatalog catalog;
  catalog.duplicate_pairs.push_back({0, 1, 0.9, 0.9});
  catalog.symmetric_relations.push_back(2);
  TripleList triples = {{0, 0, 1}, {0, 1, 1}, {2, 2, 3}};
  const TripleStore store(triples, 5, 3);
  const SimpleRuleModel model(store, catalog);

  std::vector<float> scores(5);
  // Duplicate: (0, r1, ?) predicted from (0, r0, 1).
  model.ScoreTails(0, 1, scores);
  EXPECT_EQ(scores[1], 1.0f);
  // Symmetric: (3, r2, ?) predicted from (2, r2, 3).
  model.ScoreTails(3, 2, scores);
  EXPECT_EQ(scores[2], 1.0f);
  // Symmetric head side: (?, r2, 2) -> 3.
  model.ScoreHeads(2, 2, scores);
  EXPECT_EQ(scores[3], 1.0f);
}

// --- CartesianPredictor ------------------------------------------------

TEST(CartesianPredictorTest, PredictsFullProduct) {
  // r0 is Cartesian {0,1} x {4,5,6} with one pair (1,6) missing from the
  // observed data (density 5/6 > 0.8).
  TripleList triples = {{0, 0, 4}, {0, 0, 5}, {0, 0, 6}, {1, 0, 4}, {1, 0, 5}};
  const TripleStore store(triples, 8, 1);
  const CartesianPredictor predictor(store);
  ASSERT_TRUE(predictor.IsCartesian(0));

  std::vector<float> scores(8);
  predictor.ScoreTails(1, 0, scores);
  EXPECT_GT(scores[6], 0.0f);   // the missing product member is predicted
  EXPECT_GT(scores[4], scores[6]);  // known facts score highest
  EXPECT_EQ(scores[7], 0.0f);

  predictor.ScoreHeads(0, 6, scores);
  EXPECT_GT(scores[1], 0.0f);
}

TEST(CartesianPredictorTest, NonCartesianFallsBackToAdjacency) {
  // Sparse relation: not Cartesian.
  TripleList triples = {{0, 0, 4}, {1, 0, 5}, {2, 0, 6}, {3, 0, 7}};
  const TripleStore store(triples, 8, 1);
  const CartesianPredictor predictor(store);
  EXPECT_FALSE(predictor.IsCartesian(0));
  std::vector<float> scores(8);
  predictor.ScoreTails(0, 0, scores);
  EXPECT_GT(scores[4], 0.0f);
  EXPECT_EQ(scores[5], 0.0f);
}

TEST(CartesianPredictorTest, TypeExtensionPredictsBeyondObservedEntities) {
  // Cartesian relation over subjects {0,1} (type 0) and objects {4,5}
  // (type 1). Entity 2 has type 0 and entity 6 type 1, but neither appears
  // in any triple: the type extension (paper §4.3(2)) still predicts them.
  TripleList triples = {{0, 0, 4}, {0, 0, 5}, {1, 0, 4}, {1, 0, 5}};
  const TripleStore store(triples, 8, 1);
  CartesianPredictor predictor(store, std::vector<RelationId>{0});
  //                     entity: 0  1  2  3  4  5  6  7
  predictor.EnableTypeExtension({0, 0, 0, 2, 1, 1, 1, 2});
  ASSERT_TRUE(predictor.type_extension_enabled());

  std::vector<float> scores(8);
  // Unseen head of the right type still triggers the product closure.
  predictor.ScoreTails(2, 0, scores);
  EXPECT_GT(scores[4], 0.0f);
  EXPECT_GT(scores[6], 0.0f);   // unseen object of the right type
  EXPECT_EQ(scores[7], 0.0f);   // wrong type stays out
  EXPECT_GT(scores[4], scores[6]);  // observed objects outrank typed ones

  // Head side: unseen tail of the right type.
  predictor.ScoreHeads(0, 6, scores);
  EXPECT_GT(scores[0], 0.0f);
  EXPECT_GT(scores[2], 0.0f);
  EXPECT_EQ(scores[3], 0.0f);
}

TEST(CartesianPredictorTest, ForcedRelationList) {
  TripleList triples = {{0, 0, 4}, {1, 0, 5}};
  const TripleStore store(triples, 8, 1);
  const CartesianPredictor predictor(store, std::vector<RelationId>{0});
  EXPECT_TRUE(predictor.IsCartesian(0));
  std::vector<float> scores(8);
  predictor.ScoreTails(0, 0, scores);
  EXPECT_GT(scores[5], 0.0f);  // product closure over observed S x O
}

}  // namespace
}  // namespace kgc
