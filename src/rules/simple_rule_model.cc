#include "rules/simple_rule_model.h"

#include <algorithm>

namespace kgc {

SimpleRuleModel::SimpleRuleModel(const TripleStore& train, double theta)
    : SimpleRuleModel(train, [&] {
        DetectorOptions options;
        options.theta1 = theta;
        options.theta2 = theta;
        return RedundancyCatalog::Detect(train, options);
      }()) {}

SimpleRuleModel::SimpleRuleModel(const TripleStore& train,
                                 RedundancyCatalog catalog)
    : train_(train),
      catalog_(std::move(catalog)),
      reverse_partners_(static_cast<size_t>(train.num_relations())),
      duplicate_partners_(static_cast<size_t>(train.num_relations())),
      symmetric_(static_cast<size_t>(train.num_relations()), false) {
  for (RelationId r = 0; r < train.num_relations(); ++r) {
    reverse_partners_[static_cast<size_t>(r)] = catalog_.ReversePartners(r);
    duplicate_partners_[static_cast<size_t>(r)] =
        catalog_.DuplicatePartners(r);
  }
  for (RelationId r : catalog_.symmetric_relations) {
    symmetric_[static_cast<size_t>(r)] = true;
  }
}

void SimpleRuleModel::ScoreCandidates(bool tails, RelationId r,
                                      EntityId anchor,
                                      std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  // Reverse rule: (y, r2, x) => (x, r, y), read off r2's opposite adjacency.
  for (RelationId r2 : reverse_partners_[static_cast<size_t>(r)]) {
    for (EntityId e : train_.Adjacent(!tails, r2, anchor)) {
      out[static_cast<size_t>(e)] = 1.0f;
    }
  }
  if (symmetric_[static_cast<size_t>(r)]) {
    for (EntityId e : train_.Adjacent(!tails, r, anchor)) {
      out[static_cast<size_t>(e)] = 1.0f;
    }
  }
  // Duplicate rule: (x, r2, y) => (x, r, y).
  for (RelationId r2 : duplicate_partners_[static_cast<size_t>(r)]) {
    for (EntityId e : train_.Adjacent(tails, r2, anchor)) {
      out[static_cast<size_t>(e)] = 1.0f;
    }
  }
}

}  // namespace kgc
