// AMIE-style rule mining (Galarraga et al., WWW 2013) and rule-based link
// prediction.
//
// The miner searches closed Horn rules of the three shapes in rule.h over a
// training store, computing support, standard confidence, PCA confidence and
// head coverage. Prediction follows the paper's protocol (§5.2): for a query
// all rules with the query relation in the head are instantiated; candidate
// entities are ranked by the maximum confidence of a generating rule, ties
// broken by the number of distinct rules that generate the candidate.

#ifndef KGC_RULES_AMIE_H_
#define KGC_RULES_AMIE_H_

#include <memory>
#include <vector>

#include "kg/link_predictor.h"
#include "kg/triple_store.h"
#include "rules/rule.h"

namespace kgc {

struct AmieOptions {
  size_t min_support = 5;
  double min_head_coverage = 0.01;
  double min_confidence = 0.05;
  /// Global budget on 2-hop path enumeration, in body combinations.
  /// Mediator entities z are admitted in ascending id, skipping hubs (more
  /// than 20000 in·out fact combinations); each admitted z adds its in·out
  /// to a running sum, and once that sum exceeds this value no further
  /// mediator is admitted. A pure function of the degrees; on the shipped
  /// inputs (at most ~1.9M combinations) it never binds.
  size_t max_path_combinations = 2'000'000;
  /// Rank candidates by PCA confidence (true, AMIE+'s default) or standard.
  bool use_pca_confidence = true;
};

/// Mines rules from `train`. Rules come out ordered by confidence (PCA or
/// standard, per `use_pca_confidence`) descending, then support
/// descending, then (kind, body1, body2, head) ascending: a total order,
/// so the list depends only on the mined rule set.
std::vector<Rule> MineRules(const TripleStore& train,
                            const AmieOptions& options = {});

/// Observed-feature link predictor backed by mined rules.
class RulePredictor final : public LinkPredictor {
 public:
  /// `train` must outlive the predictor.
  RulePredictor(std::vector<Rule> rules, const TripleStore& train,
                const AmieOptions& options = {});

  const char* name() const override { return "AMIE"; }
  int32_t num_entities() const override { return train_.num_entities(); }
  void ScoreCandidates(bool tails, RelationId r, EntityId anchor,
                       std::span<float> out) const override;

  const std::vector<Rule>& rules() const { return rules_; }

  /// Rules whose head is `r`, strongest confidence first.
  const std::vector<const Rule*>& RulesForHead(RelationId r) const;

 private:
  double Confidence(const Rule& rule) const {
    return options_.use_pca_confidence ? rule.pca_confidence
                                       : rule.std_confidence;
  }

  std::vector<Rule> rules_;
  const TripleStore& train_;
  AmieOptions options_;
  std::vector<std::vector<const Rule*>> by_head_;
};

}  // namespace kgc

#endif  // KGC_RULES_AMIE_H_
