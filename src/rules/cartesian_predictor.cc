#include "rules/cartesian_predictor.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace kgc {

CartesianPredictor::CartesianPredictor(const TripleStore& train,
                                       const DetectorOptions& options)
    : train_(train),
      cartesian_(static_cast<size_t>(train.num_relations()), false) {
  for (const CartesianEvidence& evidence :
       FindCartesianRelations(train, options)) {
    cartesian_[static_cast<size_t>(evidence.relation)] = true;
  }
}

CartesianPredictor::CartesianPredictor(
    const TripleStore& train, std::vector<RelationId> cartesian_relations)
    : train_(train),
      cartesian_(static_cast<size_t>(train.num_relations()), false) {
  for (RelationId r : cartesian_relations) {
    KGC_CHECK_GE(r, 0);
    KGC_CHECK_LT(r, train.num_relations());
    cartesian_[static_cast<size_t>(r)] = true;
  }
}

void CartesianPredictor::EnableTypeExtension(
    std::vector<int32_t> entity_type) {
  KGC_CHECK_EQ(static_cast<int64_t>(entity_type.size()),
               static_cast<int64_t>(train_.num_entities()));
  entity_type_ = std::move(entity_type);
  // Precomputed for every relation up front: scoring runs concurrently on
  // the ranker's worker threads, so a lazily-filled cache would race.
  subject_type_.assign(static_cast<size_t>(train_.num_relations()), -1);
  object_type_.assign(static_cast<size_t>(train_.num_relations()), -1);
  for (RelationId r = 0; r < train_.num_relations(); ++r) {
    subject_type_[static_cast<size_t>(r)] =
        ComputeMajorityType(r, /*objects=*/false);
    object_type_[static_cast<size_t>(r)] =
        ComputeMajorityType(r, /*objects=*/true);
  }
}

int32_t CartesianPredictor::MajorityType(RelationId r, bool objects) const {
  const std::vector<int32_t>& cache = objects ? object_type_ : subject_type_;
  return cache[static_cast<size_t>(r)];
}

int32_t CartesianPredictor::ComputeMajorityType(RelationId r,
                                                bool objects) const {
  std::unordered_map<int32_t, size_t> counts;
  for (EntityId e : Members(r, objects)) {
    counts[entity_type_[static_cast<size_t>(e)]]++;
  }
  int32_t best = -1;
  size_t best_count = 0;
  for (const auto& [type, count] : counts) {
    if (count > best_count) {
      best = type;
      best_count = count;
    }
  }
  return best;
}

std::vector<RelationId> CartesianPredictor::CartesianRelations() const {
  std::vector<RelationId> result;
  for (RelationId r = 0; r < train_.num_relations(); ++r) {
    if (cartesian_[static_cast<size_t>(r)]) result.push_back(r);
  }
  return result;
}

void CartesianPredictor::ScoreCandidates(bool tails, RelationId r,
                                         EntityId anchor,
                                         std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  if (cartesian_[static_cast<size_t>(r)]) {
    // Predict every candidate-side member of the relation (objects for a
    // tails query), provided the anchor is a known member of its own side
    // (or, with the type extension, of that side's majority type).
    const bool anchor_objects = !tails;
    const bool anchor_qualifies =
        Members(r, anchor_objects).contains(anchor) ||
        (type_extension_enabled() &&
         entity_type_[static_cast<size_t>(anchor)] ==
             MajorityType(r, anchor_objects));
    if (anchor_qualifies) {
      for (EntityId e : Members(r, tails)) {
        out[static_cast<size_t>(e)] = 1.0f;
      }
      if (type_extension_enabled()) {
        const int32_t candidate_type = MajorityType(r, tails);
        for (EntityId e = 0; e < train_.num_entities(); ++e) {
          if (entity_type_[static_cast<size_t>(e)] == candidate_type) {
            out[static_cast<size_t>(e)] =
                std::max(out[static_cast<size_t>(e)], 0.5f);
          }
        }
      }
    }
  }
  // Known facts score highest regardless (the relation may not be Cartesian;
  // then the training adjacency is all we assert).
  for (EntityId e : train_.Adjacent(tails, r, anchor)) {
    out[static_cast<size_t>(e)] = 2.0f;
  }
}

}  // namespace kgc
