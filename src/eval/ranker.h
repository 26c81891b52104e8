// Link-prediction ranking protocol (paper §3.2).
//
// For each test triple (h, r, t) the head is replaced by every entity and
// the candidates are ordered by model score; rank_h is the position of the
// true head (tie-averaged). Same for the tail. Filtered ranks ignore
// corrupted candidates that are themselves known facts (by default: any
// triple in train/valid/test; Table-3 experiments pass the synthetic world
// graph instead to emulate scoring against the full Freebase snapshot).

#ifndef KGC_EVAL_RANKER_H_
#define KGC_EVAL_RANKER_H_

#include <vector>

#include "eval/metrics.h"
#include "kg/dataset.h"
#include "kg/link_predictor.h"

namespace kgc {

struct RankerOptions {
  /// Store used to filter known facts; if null, dataset.all_store() is used.
  const TripleStore* filter = nullptr;
  /// Worker threads for the ranking sweep (0 = KGC_THREADS / hardware
  /// default; see util/parallel.h). Results are bit-identical for any value.
  int threads = 0;
};

/// Ranks every triple of `test` under `predictor`. Results align with the
/// order of `test`. The sweep runs in two passes (tail candidates, then head
/// candidates), each sorted by (relation, anchor entity) so that triples
/// sharing a query are adjacent and per-relation model caches (TransR)
/// amortize their projections. The unique queries are cut into blocks of
/// at most kSweepQueryBlock of one relation and handed to a SweepExecutor
/// (kg/link_predictor.h); each triple's rank is counted against its true
/// entity's score tile by tile while the tile is hot. The true and
/// known-fact scores come from the executor's single-candidate Score, which
/// reproduces the tiles' bits; known facts count with the multiplicity the
/// filter store lists them. Predictors without a kernel sweep (rule models)
/// go through the same executor, which reads their full ScoreCandidates
/// vectors.
/// Blocks are statically sharded across threads and never split, so ranks
/// *and* all telemetry counters (score_evals, query_cache_hits/misses) are
/// bit-identical for any thread count and either kernel path.
std::vector<TripleRanks> RankTriples(const LinkPredictor& predictor,
                                     const Dataset& dataset,
                                     const TripleList& test,
                                     const RankerOptions& options = {});

/// Convenience: ranks the dataset's test split and pools the metrics.
LinkPredictionMetrics EvaluatePredictor(const LinkPredictor& predictor,
                                        const Dataset& dataset,
                                        const RankerOptions& options = {});

}  // namespace kgc

#endif  // KGC_EVAL_RANKER_H_
