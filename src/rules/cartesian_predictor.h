// Cartesian-product-property predictor (paper §4.3(2), Table 3).
//
// A relation whose observed subject-object pairs are dense in S_r x O_r is
// declared a Cartesian product relation; the predictor then scores every
// (h in S_r, t in O_r) as true. The paper shows this trivial method beats
// TransE on such relations -- especially when judged against the full
// Freebase snapshot (here: the synthetic world graph).

#ifndef KGC_RULES_CARTESIAN_PREDICTOR_H_
#define KGC_RULES_CARTESIAN_PREDICTOR_H_

#include <vector>

#include "kg/link_predictor.h"
#include "kg/triple_store.h"
#include "redundancy/detectors.h"

namespace kgc {

class CartesianPredictor final : public LinkPredictor {
 public:
  /// Detects Cartesian relations on `train` (must outlive the predictor)
  /// with the given density threshold.
  CartesianPredictor(const TripleStore& train,
                     const DetectorOptions& options = {});

  /// Forces a specific relation set to be treated as Cartesian (used when
  /// relations were detected on a larger store, e.g. the world graph).
  CartesianPredictor(const TripleStore& train,
                     std::vector<RelationId> cartesian_relations);

  /// Enables the paper's type-system extension (§4.3(2)): instead of
  /// closing over the *observed* subjects/objects S_r x O_r, predict for
  /// every entity sharing a type with them. `entity_type[e]` assigns each
  /// entity one type id (Freebase entity types; in the synthetic benchmarks
  /// the generator's domains). A relation's subject/object type is the
  /// majority type of its observed subjects/objects.
  void EnableTypeExtension(std::vector<int32_t> entity_type);

  bool type_extension_enabled() const { return !entity_type_.empty(); }

  const char* name() const override { return "CartesianRule"; }
  int32_t num_entities() const override { return train_.num_entities(); }
  void ScoreCandidates(bool tails, RelationId r, EntityId anchor,
                       std::span<float> out) const override;

  bool IsCartesian(RelationId r) const {
    return cartesian_[static_cast<size_t>(r)];
  }
  std::vector<RelationId> CartesianRelations() const;

 private:
  // Majority type of a relation's observed subjects (if `objects` is false)
  // or objects; -1 when untyped or no triples. Pure lookup into the tables
  // precomputed by EnableTypeExtension (scoring is concurrent, so there is
  // no lazy fill-in).
  int32_t MajorityType(RelationId r, bool objects) const;
  int32_t ComputeMajorityType(RelationId r, bool objects) const;
  // Observed objects (if `objects`) or subjects of a relation.
  EntitySetView Members(RelationId r, bool objects) const {
    return objects ? train_.Objects(r) : train_.Subjects(r);
  }

  const TripleStore& train_;
  std::vector<bool> cartesian_;
  std::vector<int32_t> entity_type_;
  // Per relation, majority subject/object types (filled eagerly).
  std::vector<int32_t> subject_type_;
  std::vector<int32_t> object_type_;
};

}  // namespace kgc

#endif  // KGC_RULES_CARTESIAN_PREDICTOR_H_
