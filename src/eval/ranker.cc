#include "eval/ranker.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace kgc {
namespace {

// Candidate tallies of one test triple against its true entity's score
// s_true: `greater`/`equal` over every entity (equal includes the true
// entity itself), `*_known` over the known adjacency excluding the true
// entity, counted with multiplicity as the store lists it.
struct RankTally {
  float s_true = 0.0f;
  size_t greater = 0;
  size_t equal = 0;
  size_t greater_known = 0;
  size_t equal_known = 0;
};

void CountAbove(const float* scores, size_t n, RankTally* t) {
  const float s_true = t->s_true;
  size_t greater = 0;
  size_t equal = 0;
  for (size_t i = 0; i < n; ++i) {
    greater += scores[i] > s_true;
    equal += scores[i] == s_true;
  }
  t->greater += greater;
  t->equal += equal;
}

// Tie-averaged raw and filtered rank from a finished tally.
void StoreRank(const RankTally& t, double* raw, double* filtered) {
  KGC_DCHECK(t.equal >= 1);  // the true entity itself
  const size_t equal = t.equal - 1;
  *raw = static_cast<double>(t.greater) + static_cast<double>(equal) / 2.0 +
         1.0;
  *filtered = static_cast<double>(t.greater - t.greater_known) +
              static_cast<double>(equal - t.equal_known) / 2.0 + 1.0;
}

// Ranks whole blocks on one shard. A block is up to kSweepQueryBlock unique
// (relation, anchor) queries of one relation, each with the test triples
// that share it; all per-block buffers live here and are reused.
struct BlockRanker {
  BlockRanker(const LinkPredictor& predictor, const TripleStore& filter,
              const TripleList& test, const std::vector<size_t>& order,
              const std::vector<size_t>& query_start, bool tails,
              std::vector<TripleRanks>& results)
      : filter(filter),
        test(test),
        order(order),
        query_start(query_start),
        tails(tails),
        results(results),
        sweep(predictor, kSweepTileRows) {}

  const TripleStore& filter;
  const TripleList& test;
  const std::vector<size_t>& order;
  // Unique query q spans order[query_start[q], query_start[q + 1]).
  const std::vector<size_t>& query_start;
  const bool tails;
  std::vector<TripleRanks>& results;

  SweepExecutor sweep;
  std::vector<EntityId> anchors;
  std::vector<float> known_scores;
  std::vector<RankTally> tallies;  // the block's triples, in `order` order

  // Ranks the triples of unique queries [q0, q1): sets each triple's s_true
  // and known-fact correction from single scores, then counts candidates
  // tile by tile while each tile is hot.
  void RankBlock(size_t q0, size_t q1) {
    const size_t first = query_start[q0];
    const size_t last = query_start[q1];
    tallies.assign(last - first, RankTally{});
    anchors.clear();
    for (size_t q = q0; q < q1; ++q) {
      const Triple& lead = test[order[query_start[q]]];
      anchors.push_back(tails ? lead.head : lead.tail);
    }
    sweep.Load(tails, test[order[first]].relation, anchors);
    for (size_t a = 0; a < anchors.size(); ++a) ScoreTrueAndKnown(q0, a);
    sweep.ForEachTile([&](size_t /*first*/, size_t count, const float* scores,
                          size_t stride) {
      for (size_t a = 0; a < anchors.size(); ++a) {
        for (size_t i = query_start[q0 + a]; i < query_start[q0 + a + 1];
             ++i) {
          CountAbove(scores + a * stride, count, &tallies[i - first]);
        }
      }
    });
    for (size_t i = first; i < last; ++i) {
      const size_t idx = order[i];
      TripleRanks& ranks = results[idx];
      if (tails) {
        ranks.triple = test[idx];
        StoreRank(tallies[i - first], &ranks.tail_raw, &ranks.tail_filtered);
      } else {
        StoreRank(tallies[i - first], &ranks.head_raw, &ranks.head_filtered);
      }
    }
  }

  // Sets s_true of the triples of the block's query a (the block starts at
  // unique query q0) and adds their known-adjacency correction.
  void ScoreTrueAndKnown(size_t q0, size_t a) {
    const size_t q = q0 + a;
    const Triple& lead = test[order[query_start[q]]];
    const std::span<const EntityId> known =
        tails ? filter.Tails(lead.head, lead.relation)
              : filter.Heads(lead.relation, lead.tail);
    known_scores.resize(known.size());
    for (size_t k = 0; k < known.size(); ++k) {
      known_scores[k] = sweep.Score(a, known[k]);
    }
    for (size_t i = query_start[q]; i < query_start[q + 1]; ++i) {
      RankTally& t = tallies[i - query_start[q0]];
      const Triple& triple = test[order[i]];
      const EntityId truth = tails ? triple.tail : triple.head;
      t.s_true = sweep.Score(a, truth);
      for (size_t k = 0; k < known.size(); ++k) {
        if (known[k] == truth) continue;
        t.greater_known += known_scores[k] > t.s_true;
        t.equal_known += known_scores[k] == t.s_true;
      }
    }
  }
};

}  // namespace

std::vector<TripleRanks> RankTriples(const LinkPredictor& predictor,
                                     const Dataset& dataset,
                                     const TripleList& test,
                                     const RankerOptions& options) {
  const TripleStore& filter =
      options.filter != nullptr ? *options.filter : dataset.all_store();
  const size_t num_entities = static_cast<size_t>(predictor.num_entities());
  KGC_CHECK_EQ(predictor.num_entities(), dataset.num_entities());

  DeadlinePhase deadline_phase("rank");
  obs::TraceSpan sweep_span("rank_triples");
  sweep_span.AddArgInt("triples", static_cast<long long>(test.size()));
  sweep_span.AddArgStr("predictor", predictor.name());
  // Telemetry handles resolved once; per-shard updates are a handful of
  // relaxed atomic adds, so the scoring loop itself stays untouched.
  static obs::Counter& sweeps =
      obs::Registry::Get().GetCounter(obs::kRankerSweeps);
  static obs::Counter& triples_ranked =
      obs::Registry::Get().GetCounter(obs::kRankerTriplesRanked);
  static obs::Counter& score_evals =
      obs::Registry::Get().GetCounter(obs::kRankerScoreEvals);
  static obs::Counter& query_hits =
      obs::Registry::Get().GetCounter(obs::kRankerQueryCacheHits);
  static obs::Counter& query_misses =
      obs::Registry::Get().GetCounter(obs::kRankerQueryCacheMisses);
  static obs::HdrHistogram& shard_seconds =
      obs::Registry::Get().GetDurationHistogram(obs::kRankerShardSeconds);
  sweeps.Increment();

  std::vector<TripleRanks> results(test.size());

  // One pass per candidate direction. Each pass sorts the test triples by
  // (relation, anchor) — the anchor is the entity kept fixed by the query —
  // so triples sharing a query are adjacent, then cuts the unique queries
  // into blocks of at most kSweepQueryBlock of one relation. Blocks are
  // sharded statically and never split, so ranks and the hit/miss/eval
  // tallies are a pure function of the test list, bit-identical for any
  // thread count.
  const auto run_pass = [&](bool tails) {
    std::vector<size_t> order(test.size());
    std::iota(order.begin(), order.end(), size_t{0});
    const auto anchor = [&](size_t idx) {
      return tails ? test[idx].head : test[idx].tail;
    };
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (test[a].relation != test[b].relation) {
        return test[a].relation < test[b].relation;
      }
      return anchor(a) < anchor(b);
    });

    // Block b spans unique queries [block_start[b], block_start[b + 1]).
    std::vector<size_t> query_start;
    std::vector<size_t> block_start;
    for (size_t i = 0; i < order.size(); ++i) {
      const bool new_relation =
          i == 0 || test[order[i]].relation != test[order[i - 1]].relation;
      if (!new_relation && anchor(order[i]) == anchor(order[i - 1])) continue;
      if (new_relation ||
          query_start.size() - block_start.back() == kSweepQueryBlock) {
        block_start.push_back(query_start.size());
      }
      query_start.push_back(i);
    }
    query_start.push_back(order.size());
    block_start.push_back(query_start.size() - 1);
    const size_t num_blocks = block_start.size() - 1;

    ParallelFor(num_blocks, options.threads,
                [&](size_t bbegin, size_t bend, int /*shard*/) {
      Stopwatch shard_watch;
      BlockRanker ranker(predictor, filter, test, order, query_start, tails,
                         results);
      for (size_t b = bbegin; b < bend; ++b) {
        ranker.RankBlock(block_start[b], block_start[b + 1]);
      }
      const size_t queries = block_start[bend] - block_start[bbegin];
      const size_t ranked =
          query_start[block_start[bend]] - query_start[block_start[bbegin]];
      if (tails) triples_ranked.Add(ranked);
      score_evals.Add(queries * num_entities);
      query_hits.Add(ranked - queries);
      query_misses.Add(queries);
      shard_seconds.Observe(shard_watch.ElapsedSeconds());
    });
  };
  // Each pass is a deadline boundary: an over-budget sweep exits between
  // the joined parallel passes, never inside one. Ranks are recomputed
  // from the cached model on retry, so there is nothing to checkpoint.
  run_pass(/*tails=*/true);
  PhaseBoundary("rank_pass");
  run_pass(/*tails=*/false);
  PhaseBoundary("rank_done");
  return results;
}

LinkPredictionMetrics EvaluatePredictor(const LinkPredictor& predictor,
                                        const Dataset& dataset,
                                        const RankerOptions& options) {
  const std::vector<TripleRanks> ranks =
      RankTriples(predictor, dataset, dataset.test(), options);
  return ComputeMetrics(ranks);
}

}  // namespace kgc
