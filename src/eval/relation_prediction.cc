#include "eval/relation_prediction.h"

#include <cstdint>
#include <vector>

namespace kgc {

LinkPredictionMetrics EvaluateRelationPrediction(const KgeModel& model,
                                                 const Dataset& dataset) {
  MetricsAccumulator metrics;
  const TripleStore& all = dataset.all_store();
  const int32_t num_relations = dataset.num_relations();
  if (num_relations == 0) return metrics.Finalize();

  std::vector<double> scores(static_cast<size_t>(num_relations));
  std::vector<uint64_t> probe_keys(static_cast<size_t>(num_relations));
  std::vector<uint8_t> known(static_cast<size_t>(num_relations));
  for (const Triple& t : dataset.test()) {
    for (RelationId r = 0; r < num_relations; ++r) {
      scores[static_cast<size_t>(r)] = model.Score(t.head, r, t.tail);
      probe_keys[static_cast<size_t>(r)] = PackTriple(t.head, r, t.tail);
    }
    // One prefetched batch probe resolves (h, r', t) membership for every
    // candidate relation at once.
    all.ContainsBatch(probe_keys, known.data());
    const double s_true = scores[static_cast<size_t>(t.relation)];
    size_t greater = 0, equal = 0;
    size_t greater_known = 0, equal_known = 0;
    for (RelationId r = 0; r < num_relations; ++r) {
      const double s = scores[static_cast<size_t>(r)];
      if (s > s_true) {
        ++greater;
        if (r != t.relation && known[static_cast<size_t>(r)]) {
          ++greater_known;
        }
      } else if (s == s_true && r != t.relation) {
        ++equal;
        if (known[static_cast<size_t>(r)]) ++equal_known;
      }
    }
    const double raw =
        static_cast<double>(greater) + static_cast<double>(equal) / 2.0 + 1.0;
    const double filtered = static_cast<double>(greater - greater_known) +
                            static_cast<double>(equal - equal_known) / 2.0 +
                            1.0;
    metrics.Add(raw, filtered);
  }
  return metrics.Finalize();
}

}  // namespace kgc
