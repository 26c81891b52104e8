// Top-K retrieval fast path (DESIGN.md "Top-K retrieval").
//
// Answers "which K entities score best for this query" without
// materializing the full score vector the ranking protocol sweeps:
//
//   1. Blocked sweeps — queries that share a (direction, relation) group
//      go through a SweepExecutor (kg/link_predictor.h) in blocks of
//      kSweepQueryBlock, so each embedding row is streamed through cache
//      once per tile per block instead of once per query. The ranker runs
//      on the same executor.
//   2. Bounded per-query heaps — a K-entry heap ordered by
//      (score desc, entity asc) replaces the full score vector; the
//      entity-id tie-break makes results a pure function of the model, so
//      they are bit-identical across KGC_THREADS and kernel paths.
//
// Every per-(query, row) score is produced by the same fixed-order kernel
// reduction and the same SweepEpilogue as ScoreCandidates, so the
// top-K lists equal the truncated full ranking (OracleTopK) bit for bit.
// Models without a kernel sweep (DescribeSweep == false, e.g. rule
// predictors) take the same path over their full ScoreCandidates vectors —
// correct, just not fast.

#ifndef KGC_EVAL_TOPK_H_
#define KGC_EVAL_TOPK_H_

#include <span>
#include <vector>

#include "kg/link_predictor.h"
#include "kg/triple_store.h"

namespace kgc {

struct TopKOptions {
  /// Entries kept per query (raw and filtered lists each).
  int k = 10;
  /// Entity rows per tile.
  int tile_rows = static_cast<int>(kSweepTileRows);
  /// Worker threads (0 = KGC_THREADS / hardware default). Results and
  /// kgc.topk.* counters are bit-identical for any value.
  int threads = 0;
};

/// One retrieval query: rank candidate tails of (anchor, relation, ?) when
/// tails is set, else candidate heads of (?, relation, anchor).
struct TopKQuery {
  bool tails = true;
  RelationId relation = 0;
  EntityId anchor = 0;
  /// Entities whose exact scores the caller needs regardless of whether
  /// they reach the top-K (e.g. the true entity of a test triple). Scored
  /// directly, one row each.
  std::vector<EntityId> watch;
};

struct TopKEntry {
  float score = 0.0f;
  EntityId entity = 0;
};

struct TopKResult {
  /// Best-first (score desc, entity asc), at most K entries.
  std::vector<TopKEntry> raw;
  /// Same, excluding entities that complete a known triple in the filter
  /// store. Equals `raw` when Run was given no filter.
  std::vector<TopKEntry> filtered;
  /// Exact scores for TopKQuery::watch, in order.
  std::vector<float> watch_scores;
};

class TopKEngine {
 public:
  TopKEngine(const LinkPredictor& predictor, const TopKOptions& options);

  /// Retrieves top-K for every query. `filter` may be null (filtered lists
  /// then mirror the raw lists). Queries are grouped by (direction,
  /// relation) and groups are sharded whole across threads, so results and
  /// counters never depend on the thread count.
  std::vector<TopKResult> Run(std::span<const TopKQuery> queries,
                              const TripleStore* filter) const;

  /// Full-ranking oracle: ScoreCandidates over every entity, sorted
  /// by (score desc, entity asc), truncated to k. The reference Run must
  /// match bit for bit.
  static TopKResult OracleTopK(const LinkPredictor& predictor,
                               const TopKQuery& query, int k,
                               const TripleStore* filter);

 private:
  const LinkPredictor& predictor_;
  TopKOptions options_;
};

}  // namespace kgc

#endif  // KGC_EVAL_TOPK_H_
