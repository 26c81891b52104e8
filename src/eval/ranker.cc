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
  EntityId true_entity = 0;
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
      : predictor(predictor),
        filter(filter),
        test(test),
        order(order),
        query_start(query_start),
        tails(tails),
        results(results) {}

  const LinkPredictor& predictor;
  const TripleStore& filter;
  const TripleList& test;
  const std::vector<size_t>& order;
  // Unique query q spans order[query_start[q], query_start[q + 1]).
  const std::vector<size_t>& query_start;
  const bool tails;
  std::vector<TripleRanks>& results;

  bool described = false;
  bool sweepable = false;
  RelationId relation = 0;
  SweepSpec spec;
  std::vector<float> coef;
  std::vector<float> v;
  std::vector<float> qbuf;
  std::vector<float> out;
  std::vector<float> scores;
  std::vector<float> known_scores;
  std::vector<RankTally> tallies;  // the block's triples, in `order` order

  // Ranks the triples of unique queries [q0, q1).
  void RankBlock(size_t q0, size_t q1) {
    const size_t first = query_start[q0];
    const size_t last = query_start[q1];
    Describe(test[order[first]].relation);
    tallies.assign(last - first, RankTally{});
    for (size_t i = first; i < last; ++i) {
      const Triple& triple = test[order[i]];
      tallies[i - first].true_entity = tails ? triple.tail : triple.head;
    }
    if (sweepable) {
      SweepQueries(q0, q1);
    } else {
      for (size_t q = q0; q < q1; ++q) ScoreQuery(q0, q);
    }
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

  EntityId Anchor(size_t q) const {
    const Triple& t = test[order[query_start[q]]];
    return tails ? t.head : t.tail;
  }

  RankTally& Tally(size_t q0, size_t i) {
    return tallies[i - query_start[q0]];
  }

  // Describes the sweep of `r` unless this shard already holds it. coef/v
  // may alias model scratch that BuildSweepQuery clobbers, so the spec
  // points at copies; rows/bias stay put while the relation does.
  void Describe(RelationId r) {
    if (described && r == relation) return;
    described = true;
    relation = r;
    spec = SweepSpec{};
    sweepable = predictor.DescribeSweep(tails, r, &spec) &&
                spec.kind != SweepKind::kNone;
    if (!sweepable) return;
    if (spec.coef != nullptr) {
      coef.assign(spec.coef, spec.coef + spec.num_rows);
      spec.coef = coef.data();
    }
    if (spec.v != nullptr) {
      v.assign(spec.v, spec.v + spec.dim);
      spec.v = v.data();
    }
  }

  // Sets s_true of query q's triples (block starting at query q0) and adds
  // their known-adjacency correction, scoring entities with `score_of`.
  template <typename ScoreOf>
  void ScoreTrueAndKnown(size_t q0, size_t q, ScoreOf score_of) {
    const Triple& lead = test[order[query_start[q]]];
    const std::span<const EntityId> known =
        tails ? filter.Tails(lead.head, lead.relation)
              : filter.Heads(lead.relation, lead.tail);
    known_scores.resize(known.size());
    for (size_t k = 0; k < known.size(); ++k) {
      known_scores[k] = score_of(known[k]);
    }
    for (size_t i = query_start[q]; i < query_start[q + 1]; ++i) {
      RankTally& t = Tally(q0, i);
      t.s_true = score_of(t.true_entity);
      for (size_t k = 0; k < known.size(); ++k) {
        if (known[k] == t.true_entity) continue;
        t.greater_known += known_scores[k] > t.s_true;
        t.equal_known += known_scores[k] == t.s_true;
      }
    }
  }

  // Kernel path: build the block's queries, score the true and known
  // entities one row each, then sweep the table tile by tile and count
  // each triple's candidates while the tile is hot.
  void SweepQueries(size_t q0, size_t q1) {
    const size_t nq = q1 - q0;
    const size_t qlen = spec.query_len;
    qbuf.resize(nq * qlen);
    for (size_t a = 0; a < nq; ++a) {
      float* q = qbuf.data() + a * qlen;
      predictor.BuildSweepQuery(tails, relation, Anchor(q0 + a),
                                std::span<float>(q, qlen));
      ScoreTrueAndKnown(q0, q0 + a, [&](EntityId e) {
        float score;
        SweepRows(spec, q, static_cast<size_t>(e), 1, &score);
        return score;
      });
    }
    out.resize(kSweepQueryBlock * kSweepTileRows);
    for (size_t base = 0; base < spec.num_rows; base += kSweepTileRows) {
      const size_t tile_n = std::min(kSweepTileRows, spec.num_rows - base);
      SweepBlock(spec, qbuf.data(), qlen, nq, base, tile_n, out.data(),
                 tile_n);
      for (size_t a = 0; a < nq; ++a) {
        float* row = out.data() + a * tile_n;
        SweepEpilogue(spec, base, tile_n, row);
        for (size_t i = query_start[q0 + a]; i < query_start[q0 + a + 1];
             ++i) {
          CountAbove(row, tile_n, &Tally(q0, i));
        }
      }
    }
  }

  // Full-vector path for predictors without a kernel sweep (rule models).
  void ScoreQuery(size_t q0, size_t q) {
    scores.resize(static_cast<size_t>(predictor.num_entities()));
    if (tails) {
      predictor.ScoreTails(Anchor(q), relation, scores);
    } else {
      predictor.ScoreHeads(relation, Anchor(q), scores);
    }
    ScoreTrueAndKnown(q0, q, [&](EntityId e) {
      return scores[static_cast<size_t>(e)];
    });
    for (size_t i = query_start[q]; i < query_start[q + 1]; ++i) {
      CountAbove(scores.data(), scores.size(), &Tally(q0, i));
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
