// Top-K retrieval engine implementation. See topk.h for the contract and
// DESIGN.md "Blocked sweep" for the executor it runs on.

#include "eval/topk.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "kg/triple.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace kgc {
namespace {

// Per-shard counter tallies, merged into the obs registry after the join.
// Each (direction, relation) group is processed whole by exactly one shard,
// so every group's contribution is a pure function of the queries and the
// model, and the merged totals are thread-count independent.
struct Tally {
  uint64_t entities_scored = 0;
  uint64_t heap_pushes = 0;
  uint64_t queries_batched = 0;
};

// The engine-wide strict total order: higher score wins, entity id breaks
// ties. Makes every top-K set unique, hence order- and thread-independent.
inline bool Better(float score_a, EntityId a, float score_b, EntityId b) {
  return score_a > score_b || (score_a == score_b && a < b);
}

// K-bounded selection heap. std::push_heap with `Better` as the comparator
// builds a heap whose root is the comparator-maximum — the entry that is
// better than none of the others, i.e. the WORST kept entry — which is
// exactly the eviction candidate.
class BoundedHeap {
 public:
  explicit BoundedHeap(size_t k) : k_(k) { entries_.reserve(k); }

  /// True when (score, e) would enter the heap right now. A deferred
  /// candidate must be re-checked after its filter probe: the threshold
  /// only tightens, so a stale accept is never a wrong reject.
  bool WouldAccept(float score, EntityId e) const {
    if (entries_.size() < k_) return true;
    const TopKEntry& worst = entries_.front();
    return Better(score, e, worst.score, worst.entity);
  }

  /// Keeps (score, e) if it belongs in the top k seen so far; returns
  /// whether it was kept. The final contents are the k best entries pushed,
  /// independent of push order (the order is a strict total order).
  bool Push(float score, EntityId e) {
    if (entries_.size() < k_) {
      entries_.push_back({score, e});
      std::push_heap(entries_.begin(), entries_.end(), WorstAtTop);
      return true;
    }
    const TopKEntry& worst = entries_.front();
    if (!Better(score, e, worst.score, worst.entity)) return false;
    std::pop_heap(entries_.begin(), entries_.end(), WorstAtTop);
    entries_.back() = {score, e};
    std::push_heap(entries_.begin(), entries_.end(), WorstAtTop);
    return true;
  }

  std::vector<TopKEntry> Sorted() && {
    std::sort(entries_.begin(), entries_.end(),
              [](const TopKEntry& a, const TopKEntry& b) {
                return Better(a.score, a.entity, b.score, b.entity);
              });
    return std::move(entries_);
  }

 private:
  static bool WorstAtTop(const TopKEntry& a, const TopKEntry& b) {
    return Better(a.score, a.entity, b.score, b.entity);
  }

  size_t k_;
  std::vector<TopKEntry> entries_;
};

inline uint64_t FilterKey(bool tails, RelationId r, EntityId anchor,
                          EntityId candidate) {
  return tails ? PackTriple(anchor, r, candidate)
               : PackTriple(candidate, r, anchor);
}

// Full ScoreCandidates sweep with heap selection: the oracle Run is
// compared with.
TopKResult FullSweepTopK(const LinkPredictor& predictor,
                         const TopKQuery& query, int k,
                         const TripleStore* filter) {
  const size_t n = static_cast<size_t>(predictor.num_entities());
  const size_t kk = static_cast<size_t>(k);
  std::vector<float> scores(n);
  predictor.ScoreCandidates(query.tails, query.relation, query.anchor,
                            scores);
  BoundedHeap raw(kk);
  BoundedHeap filt(kk);
  for (size_t e = 0; e < n; ++e) {
    const EntityId ent = static_cast<EntityId>(e);
    raw.Push(scores[e], ent);
    if (filter != nullptr &&
        !filter->ContainsPacked(
            FilterKey(query.tails, query.relation, query.anchor, ent))) {
      filt.Push(scores[e], ent);
    }
  }
  TopKResult result;
  result.raw = std::move(raw).Sorted();
  result.filtered = filter != nullptr ? std::move(filt).Sorted() : result.raw;
  result.watch_scores.reserve(query.watch.size());
  for (EntityId w : query.watch) {
    result.watch_scores.push_back(scores[static_cast<size_t>(w)]);
  }
  return result;
}

// Processes whole (direction, relation) groups on one shard, in blocks of
// kSweepQueryBlock queries. All per-block buffers live here and are reused.
class GroupRunner {
 public:
  GroupRunner(const LinkPredictor& predictor, const TopKOptions& options,
              std::span<const TopKQuery> queries, const TripleStore* filter,
              std::vector<TopKResult>* results, Tally* tally)
      : k_(static_cast<size_t>(options.k)),
        queries_(queries),
        filter_(filter),
        results_(results),
        tally_(tally),
        sweep_(predictor, static_cast<size_t>(options.tile_rows)) {}

  void ProcessGroup(const size_t* order, size_t count) {
    for (size_t qb = 0; qb < count; qb += kSweepQueryBlock) {
      ProcessBlock(order + qb, std::min(kSweepQueryBlock, count - qb));
    }
  }

 private:
  struct Candidate {
    uint32_t query;  // index within the block
    EntityId entity;
    float score;
  };

  // Retrieves the `count` queries order[0..count) of one (direction,
  // relation): watch scores one candidate each, then every tile of the
  // sweep, each query's candidates pushed in ascending entity order.
  void ProcessBlock(const size_t* order, size_t count) {
    const TopKQuery& lead = queries_[order[0]];
    tails_ = lead.tails;
    relation_ = lead.relation;
    anchors_.clear();
    for (size_t i = 0; i < count; ++i) {
      anchors_.push_back(queries_[order[i]].anchor);
    }
    sweep_.Load(tails_, relation_, anchors_);
    if (sweep_.kernel()) tally_->queries_batched += count;
    for (size_t i = 0; i < count; ++i) {
      const TopKQuery& q = queries_[order[i]];
      auto& watch_out = (*results_)[order[i]].watch_scores;
      watch_out.resize(q.watch.size());
      for (size_t w = 0; w < q.watch.size(); ++w) {
        watch_out[w] = sweep_.Score(i, q.watch[w]);
      }
    }

    raw_.assign(count, BoundedHeap(k_));
    if (filter_) filt_.assign(count, BoundedHeap(k_));
    sweep_.ForEachTile([&](size_t first, size_t n, const float* scores,
                           size_t stride) {
      ScanTile(first, n, scores, stride, count);
    });

    for (size_t i = 0; i < count; ++i) {
      TopKResult& result = (*results_)[order[i]];
      result.raw = std::move(raw_[i]).Sorted();
      result.filtered = filter_ ? std::move(filt_[i]).Sorted() : result.raw;
    }
  }

  // Pushes one tile (candidates [first, first + n), row a of `scores` for
  // block query a) into the raw heaps, and defers filtered-heap candidates
  // to one batched membership probe for the whole tile.
  void ScanTile(size_t first, size_t n, const float* scores, size_t stride,
                size_t count) {
    for (size_t a = 0; a < count; ++a) {
      const uint32_t q = static_cast<uint32_t>(a);
      const float* row = scores + a * stride;
      for (size_t i = 0; i < n; ++i) {
        const EntityId ent = static_cast<EntityId>(first + i);
        const float score = row[i];
        if (raw_[q].Push(score, ent)) ++tally_->heap_pushes;
        if (filter_ && filt_[q].WouldAccept(score, ent)) {
          cands_.push_back({q, ent, score});
          keys_.push_back(FilterKey(tails_, relation_, anchors_[a], ent));
        }
      }
    }
    tally_->entities_scored += count * n;
    if (filter_) ProbeAndPush();
  }

  // Flushes the deferred filtered-heap candidates of one tile: one batched
  // membership probe, then survivors re-checked against the (possibly
  // tightened) threshold by Push itself.
  void ProbeAndPush() {
    if (cands_.empty()) return;
    found_.resize(keys_.size());
    filter_->ContainsBatch(keys_, found_.data());
    for (size_t j = 0; j < cands_.size(); ++j) {
      if (found_[j]) continue;
      if (filt_[cands_[j].query].Push(cands_[j].score, cands_[j].entity)) {
        ++tally_->heap_pushes;
      }
    }
    cands_.clear();
    keys_.clear();
  }

  const size_t k_;
  std::span<const TopKQuery> queries_;
  const TripleStore* filter_;
  std::vector<TopKResult>* results_;
  Tally* tally_;
  SweepExecutor sweep_;

  // Per-block state.
  bool tails_ = true;
  RelationId relation_ = 0;
  std::vector<EntityId> anchors_;
  std::vector<BoundedHeap> raw_;
  std::vector<BoundedHeap> filt_;
  std::vector<Candidate> cands_;
  std::vector<uint64_t> keys_;
  std::vector<uint8_t> found_;
};

}  // namespace

TopKEngine::TopKEngine(const LinkPredictor& predictor,
                       const TopKOptions& options)
    : predictor_(predictor), options_(options) {
  KGC_CHECK_GT(options_.k, 0);
  KGC_CHECK_GT(options_.tile_rows, 0);
}

std::vector<TopKResult> TopKEngine::Run(std::span<const TopKQuery> queries,
                                        const TripleStore* filter) const {
  obs::TraceSpan span("topk.run");
  std::vector<TopKResult> results(queries.size());
  if (queries.empty()) return results;

  // Same-(direction, relation) queries share one sweep description and one
  // set of blocked kernel calls, so adjacency is the whole game. The sort
  // is stable and groups are sharded whole, which keeps results and
  // counters bit-identical across thread counts.
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (queries[a].tails != queries[b].tails) {
      return queries[a].tails && !queries[b].tails;
    }
    return queries[a].relation < queries[b].relation;
  });
  std::vector<std::pair<size_t, size_t>> groups;
  for (size_t begin = 0; begin < order.size();) {
    size_t end = begin + 1;
    while (end < order.size() &&
           queries[order[end]].tails == queries[order[begin]].tails &&
           queries[order[end]].relation == queries[order[begin]].relation) {
      ++end;
    }
    groups.emplace_back(begin, end);
    begin = end;
  }

  const int planned = PlannedShards(groups.size(), options_.threads);
  std::vector<Tally> tallies(static_cast<size_t>(std::max(planned, 1)));
  ParallelFor(groups.size(), options_.threads,
              [&](size_t gbegin, size_t gend, int shard) {
                GroupRunner runner(predictor_, options_, queries, filter,
                                   &results,
                                   &tallies[static_cast<size_t>(shard)]);
                for (size_t g = gbegin; g < gend; ++g) {
                  runner.ProcessGroup(order.data() + groups[g].first,
                                      groups[g].second - groups[g].first);
                }
              });

  Tally total;
  for (const Tally& t : tallies) {
    total.entities_scored += t.entities_scored;
    total.heap_pushes += t.heap_pushes;
    total.queries_batched += t.queries_batched;
  }
  static obs::Counter& entities_scored =
      obs::Registry::Get().GetCounter(obs::kTopKEntitiesScored);
  static obs::Counter& heap_pushes =
      obs::Registry::Get().GetCounter(obs::kTopKHeapPushes);
  static obs::Counter& queries_batched =
      obs::Registry::Get().GetCounter(obs::kTopKQueriesBatched);
  entities_scored.Add(total.entities_scored);
  heap_pushes.Add(total.heap_pushes);
  queries_batched.Add(total.queries_batched);
  return results;
}

TopKResult TopKEngine::OracleTopK(const LinkPredictor& predictor,
                                  const TopKQuery& query, int k,
                                  const TripleStore* filter) {
  KGC_CHECK_GT(k, 0);
  return FullSweepTopK(predictor, query, k, filter);
}

}  // namespace kgc
