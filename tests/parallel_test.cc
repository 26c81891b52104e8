// Determinism suite for the parallel execution engine (util/parallel.h).
//
// The engine's contract is "same bytes out, N× faster": every computation
// parallelized with ParallelFor must be bit-identical for every thread
// count. These tests pin that contract for the parallel layers — ranking
// and redundancy detection — by running each at threads=1 and threads=4
// (and an uneven 3) and comparing outputs field by field, plus edge cases
// of the primitive itself. Rule mining is one serial pass; rules_test pins
// it against a brute-force miner. Ranking is also checked
// against a brute-force rank oracle for every model and both kernel paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "eval/ranker.h"
#include "kg/dataset.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "redundancy/detectors.h"
#include "redundancy/leakage.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/vecmath.h"

namespace kgc {
namespace {

// --- ParallelFor primitive -------------------------------------------------

TEST(ParallelForTest, ShardsPartitionRangeInOrder) {
  const size_t n = 103;
  const int threads = 4;
  ASSERT_EQ(PlannedShards(n, threads), threads);
  std::vector<std::pair<size_t, size_t>> bounds(threads);
  ParallelFor(n, threads, [&](size_t begin, size_t end, int shard) {
    bounds[static_cast<size_t>(shard)] = {begin, end};
  });
  // Contiguous, in shard order, non-empty, covering exactly [0, n).
  EXPECT_EQ(bounds.front().first, 0u);
  EXPECT_EQ(bounds.back().second, n);
  for (int s = 0; s < threads; ++s) {
    EXPECT_LT(bounds[s].first, bounds[s].second);
    if (s > 0) {
      EXPECT_EQ(bounds[s].first, bounds[s - 1].second);
    }
  }
}

TEST(ParallelForTest, ZeroItemsNeverInvokesBody) {
  std::atomic<int> calls{0};
  ParallelFor(0, 4, [&](size_t, size_t, int) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(PlannedShards(0, 4), 0);
}

TEST(ParallelForTest, MoreThreadsThanItemsClampsToOneItemPerShard) {
  const size_t n = 3;
  ASSERT_EQ(PlannedShards(n, 8), 3);
  std::atomic<int> calls{0};
  std::vector<int> hits(n, 0);
  ParallelFor(n, 8, [&](size_t begin, size_t end, int) {
    ++calls;
    EXPECT_EQ(end, begin + 1);  // every shard gets exactly one item
    for (size_t i = begin; i < end; ++i) hits[i] = 1;
  });
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelForTest, NestedCallsRunSeriallyInline) {
  std::atomic<int> inner_calls{0};
  ParallelFor(4, 4, [&](size_t, size_t, int) {
    EXPECT_TRUE(InParallelRegion());
    // The nested loop must collapse to a single inline shard.
    ParallelFor(10, 4, [&](size_t begin, size_t end, int shard) {
      ++inner_calls;
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, 10u);
      EXPECT_EQ(shard, 0);
    });
  });
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(inner_calls.load(), 4);  // once per outer shard
}

TEST(ThreadPoolTest, RunsAllSubmittedJobsBeforeShutdown) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    EXPECT_EQ(pool.num_workers(), 2);
    for (int i = 0; i < 100; ++i) pool.Submit([&] { ++count; });
  }  // destructor drains the queue
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.num_workers(), 3);
  pool.EnsureWorkers(1);
  EXPECT_EQ(pool.num_workers(), 3);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.Submit([&] { ++count; });
  pool.EnsureWorkers(4);
  EXPECT_EQ(pool.num_workers(), 4);
}

// --- Shared fixtures -------------------------------------------------------

/// Deterministic stateless predictor: scores are a pure hash of the query,
/// so parallel and serial sweeps see identical inputs.
class HashPredictor final : public LinkPredictor {
 public:
  explicit HashPredictor(int32_t num_entities)
      : num_entities_(num_entities) {}
  const char* name() const override { return "Hash"; }
  int32_t num_entities() const override { return num_entities_; }
  void ScoreTails(EntityId h, RelationId r,
                  std::span<float> out) const override {
    Fill(static_cast<uint64_t>(h) * 2, r, out);
  }
  void ScoreHeads(RelationId r, EntityId t,
                  std::span<float> out) const override {
    Fill(static_cast<uint64_t>(t) * 2 + 1, r, out);
  }

 private:
  static void Fill(uint64_t anchor, RelationId r, std::span<float> out) {
    for (size_t e = 0; e < out.size(); ++e) {
      uint64_t state =
          anchor * 1000003ULL + static_cast<uint64_t>(r) * 31ULL + e;
      // Keep ~16 bits so score ties (exercising tie-averaging) do occur.
      out[e] = static_cast<float>(SplitMix64(state) >> 48);
    }
  }
  int32_t num_entities_;
};

/// A dataset engineered to trip every detector: duplicate, reverse-duplicate,
/// symmetric and Cartesian relations plus noise, with test triples whose
/// reverses leak from the training set.
Dataset RedundantDataset() {
  const int32_t n = 20;
  Vocab vocab;
  for (int32_t i = 0; i < n; ++i) {
    vocab.InternEntity(StrFormat("e%d", i));
  }
  const RelationId a = vocab.InternRelation("a");
  const RelationId a_dup = vocab.InternRelation("a_dup");
  const RelationId a_rev = vocab.InternRelation("a_rev");
  const RelationId sym = vocab.InternRelation("sym");
  const RelationId cart = vocab.InternRelation("cart");
  const RelationId noise = vocab.InternRelation("noise");

  TripleList train;
  TripleList test;
  for (int32_t i = 0; i < n; ++i) {
    const EntityId h = i;
    const EntityId t = (i + 7) % n;
    // Hold out a few `a` triples as test; their duplicates and reverses
    // stay in train, creating the leakage the bitmap must classify.
    if (i < 5) {
      test.push_back({h, a, t});
    } else {
      train.push_back({h, a, t});
    }
    train.push_back({h, a_dup, t});
    train.push_back({t, a_rev, h});
    train.push_back({h, noise, (i + 3) % n});
  }
  for (int32_t i = 0; i < n; i += 2) {
    train.push_back({i, sym, i + 1});
    train.push_back({i + 1, sym, i});
  }
  for (EntityId s = 0; s < 3; ++s) {
    for (EntityId o = 10; o < 14; ++o) train.push_back({s, cart, o});
  }
  return Dataset("redundant", std::move(vocab), std::move(train), {},
                 std::move(test));
}

void ExpectSameRanks(const std::vector<TripleRanks>& a,
                     const std::vector<TripleRanks>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].triple, b[i].triple) << "triple " << i;
    EXPECT_EQ(a[i].head_raw, b[i].head_raw) << "triple " << i;
    EXPECT_EQ(a[i].head_filtered, b[i].head_filtered) << "triple " << i;
    EXPECT_EQ(a[i].tail_raw, b[i].tail_raw) << "triple " << i;
    EXPECT_EQ(a[i].tail_filtered, b[i].tail_filtered) << "triple " << i;
  }
}

void ExpectSameOverlaps(const std::vector<RelationPairOverlap>& a,
                        const std::vector<RelationPairOverlap>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].r1, b[i].r1);
    EXPECT_EQ(a[i].r2, b[i].r2);
    EXPECT_EQ(a[i].coverage_r1, b[i].coverage_r1);
    EXPECT_EQ(a[i].coverage_r2, b[i].coverage_r2);
  }
}

// --- Layer determinism: threads=1 vs threads=4 must be bit-identical -------

TEST(ParallelDeterminismTest, RankTriplesIsThreadCountInvariant) {
  // A dataset with several relations so the relation-grouped order is
  // non-trivial, and enough test triples for 4 real shards.
  const int32_t num_entities = 40;
  Vocab vocab;
  for (int32_t i = 0; i < num_entities; ++i) {
    vocab.InternEntity(StrFormat("e%d", i));
  }
  for (int r = 0; r < 4; ++r) vocab.InternRelation(StrFormat("r%d", r));
  Rng rng(5);
  TripleList train;
  TripleList test;
  for (int i = 0; i < 80; ++i) {
    Triple t{static_cast<EntityId>(rng.Uniform(num_entities)),
             static_cast<RelationId>(rng.Uniform(4)),
             static_cast<EntityId>(rng.Uniform(num_entities))};
    if (i % 3 == 0) {
      test.push_back(t);
    } else {
      train.push_back(t);
    }
  }
  const Dataset dataset("det", std::move(vocab), std::move(train), {},
                        std::move(test));
  const HashPredictor predictor(num_entities);

  RankerOptions serial;
  serial.threads = 1;
  const auto baseline =
      RankTriples(predictor, dataset, dataset.test(), serial);
  ASSERT_EQ(baseline.size(), dataset.test().size());
  for (int threads : {2, 3, 4}) {
    RankerOptions options;
    options.threads = threads;
    ExpectSameRanks(
        baseline, RankTriples(predictor, dataset, dataset.test(), options));
  }
}

/// Scores every candidate 0, through a kernel sweep (a dot product against
/// an all-zero table) when `sweep` is set, else through Score* only — the
/// fully tied case on both ranking paths.
class TiedPredictor final : public LinkPredictor {
 public:
  TiedPredictor(int32_t num_entities, bool sweep)
      : num_entities_(num_entities),
        sweep_(sweep),
        rows_(static_cast<size_t>(num_entities) * kDim, 0.0f) {}
  const char* name() const override { return "Tied"; }
  int32_t num_entities() const override { return num_entities_; }
  void ScoreTails(EntityId, RelationId, std::span<float> out) const override {
    std::fill(out.begin(), out.end(), 0.0f);
  }
  void ScoreHeads(RelationId, EntityId, std::span<float> out) const override {
    std::fill(out.begin(), out.end(), 0.0f);
  }
  bool DescribeSweep(bool, RelationId, SweepSpec* spec) const override {
    if (!sweep_) return false;
    spec->kind = SweepKind::kDot;
    spec->rows = rows_.data();
    spec->num_rows = static_cast<size_t>(num_entities_);
    spec->stride = kDim;
    spec->dim = kDim;
    spec->query_len = kDim;
    return true;
  }
  void BuildSweepQuery(bool, RelationId, EntityId,
                       std::span<float> q) const override {
    std::fill(q.begin(), q.end(), 1.0f);
  }

 private:
  static constexpr size_t kDim = 4;
  int32_t num_entities_;
  bool sweep_;
  std::vector<float> rows_;
};

TEST(ParallelDeterminismTest, RankTriplesMatchesNaiveOracle) {
  // More entities than one sweep tile, more unique anchors per relation
  // than one query block, test triples that share anchors, and duplicated
  // train facts (which count multiply toward the filtered rank).
  const int32_t num_entities = 300;
  const int32_t num_relations = 3;
  Vocab vocab;
  for (int32_t i = 0; i < num_entities; ++i) {
    vocab.InternEntity(StrFormat("e%d", i));
  }
  for (int r = 0; r < num_relations; ++r) {
    vocab.InternRelation(StrFormat("r%d", r));
  }
  Rng rng(11);
  TripleList train;
  TripleList test;
  for (int i = 0; i < 900; ++i) {
    // Anchors drawn from a small pool so queries and known spans repeat.
    Triple t{static_cast<EntityId>(rng.Uniform(40)),
             static_cast<RelationId>(rng.Uniform(num_relations)),
             static_cast<EntityId>(rng.Uniform(num_entities))};
    if (i % 2 != 0) std::swap(t.head, t.tail);
    if (i % 6 == 0) {
      test.push_back(t);
    } else {
      train.push_back(t);
      if (i % 5 == 0) train.push_back(t);
    }
  }
  const Dataset dataset("oracle", std::move(vocab), std::move(train), {},
                        std::move(test));

  std::vector<std::unique_ptr<LinkPredictor>> predictors;
  for (int m = 0; m <= 9; ++m) {
    const auto type = static_cast<ModelType>(m);
    ModelHyperParams params = DefaultHyperParams(type);
    params.dim = 16;
    params.dim2 = 4;
    predictors.push_back(
        CreateModel(type, num_entities, num_relations, params));
  }
  predictors.push_back(std::make_unique<HashPredictor>(num_entities));
  predictors.push_back(std::make_unique<TiedPredictor>(num_entities, true));
  predictors.push_back(std::make_unique<TiedPredictor>(num_entities, false));

  std::vector<vec::KernelPath> paths = {vec::KernelPath::kGeneric};
  if (vec::NativeKernelsAvailable()) paths.push_back(vec::KernelPath::kNative);
  const vec::KernelPath saved_path = vec::ActiveKernelPath();
  for (const auto& predictor : predictors) {
    SCOPED_TRACE(predictor->name());
    const auto oracle = bench::NaiveRankTriples(
        *predictor, dataset.all_store(), dataset.test());
    size_t filtered_moves = 0;
    for (const TripleRanks& r : oracle) {
      filtered_moves += r.tail_filtered != r.tail_raw;
      filtered_moves += r.head_filtered != r.head_raw;
    }
    // The known-fact correction must actually fire.
    EXPECT_GT(filtered_moves, 0u);
    for (vec::KernelPath path : paths) {
      vec::SetKernelPathForTest(path);
      for (int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(StrFormat("%s threads=%d", vec::Ops().name, threads));
        RankerOptions options;
        options.threads = threads;
        ExpectSameRanks(oracle, RankTriples(*predictor, dataset,
                                            dataset.test(), options));
      }
    }
  }
  vec::SetKernelPathForTest(saved_path);
}

TEST(ParallelDeterminismTest, RankTriplesHandlesEmptyTestSplit) {
  Vocab vocab;
  for (int32_t i = 0; i < 5; ++i) {
    vocab.InternEntity(StrFormat("e%d", i));
  }
  vocab.InternRelation("r");
  const Dataset dataset("empty", std::move(vocab), {{0, 0, 1}}, {}, {});
  const HashPredictor predictor(5);
  RankerOptions options;
  options.threads = 4;
  EXPECT_TRUE(
      RankTriples(predictor, dataset, dataset.test(), options).empty());
}

TEST(ParallelDeterminismTest, DetectorCatalogIsThreadCountInvariant) {
  const Dataset dataset = RedundantDataset();
  DetectorOptions serial;
  serial.threads = 1;
  const RedundancyCatalog baseline =
      RedundancyCatalog::Detect(dataset.all_store(), serial);
  // The engineered relations must actually fire their detectors, otherwise
  // the comparison is vacuous.
  EXPECT_FALSE(baseline.duplicate_pairs.empty());
  EXPECT_FALSE(baseline.reverse_pairs.empty());
  EXPECT_FALSE(baseline.symmetric_relations.empty());
  EXPECT_FALSE(
      FindCartesianRelations(dataset.all_store(), serial).empty());

  for (int threads : {2, 4}) {
    DetectorOptions options;
    options.threads = threads;
    const RedundancyCatalog parallel =
        RedundancyCatalog::Detect(dataset.all_store(), options);
    ExpectSameOverlaps(baseline.duplicate_pairs, parallel.duplicate_pairs);
    ExpectSameOverlaps(baseline.reverse_pairs, parallel.reverse_pairs);
    ExpectSameOverlaps(baseline.reverse_duplicate_pairs,
                       parallel.reverse_duplicate_pairs);
    EXPECT_EQ(baseline.symmetric_relations, parallel.symmetric_relations);
    const auto cart_a = FindCartesianRelations(dataset.all_store(), serial);
    const auto cart_b = FindCartesianRelations(dataset.all_store(), options);
    ASSERT_EQ(cart_a.size(), cart_b.size());
    for (size_t i = 0; i < cart_a.size(); ++i) {
      EXPECT_EQ(cart_a[i].relation, cart_b[i].relation);
      EXPECT_EQ(cart_a[i].num_triples, cart_b[i].num_triples);
      EXPECT_EQ(cart_a[i].density, cart_b[i].density);
    }
  }
}

TEST(ParallelDeterminismTest, LeakageAndBitmapAreThreadCountInvariant) {
  const Dataset dataset = RedundantDataset();
  DetectorOptions detector_options;
  detector_options.threads = 1;
  const RedundancyCatalog catalog =
      RedundancyCatalog::Detect(dataset.all_store(), detector_options);

  const ReverseLeakageStats stats1 =
      ComputeReverseLeakage(dataset, catalog, /*threads=*/1);
  const RedundancyBitmap bitmap1 =
      ComputeRedundancyBitmap(dataset, catalog, /*threads=*/1);
  EXPECT_GT(stats1.test_triples_with_reverse_in_train, 0u);
  EXPECT_GT(bitmap1.reverse_in_train, 0u);
  ASSERT_EQ(bitmap1.cases.size(), dataset.test().size());

  for (int threads : {2, 4}) {
    const ReverseLeakageStats stats =
        ComputeReverseLeakage(dataset, catalog, threads);
    EXPECT_EQ(stats.train_triples_in_reverse_pairs,
              stats1.train_triples_in_reverse_pairs);
    EXPECT_EQ(stats.train_reverse_fraction, stats1.train_reverse_fraction);
    EXPECT_EQ(stats.test_triples_with_reverse_in_train,
              stats1.test_triples_with_reverse_in_train);
    EXPECT_EQ(stats.test_reverse_fraction, stats1.test_reverse_fraction);

    const RedundancyBitmap bitmap =
        ComputeRedundancyBitmap(dataset, catalog, threads);
    EXPECT_EQ(bitmap.cases, bitmap1.cases);
    EXPECT_EQ(bitmap.histogram, bitmap1.histogram);
    EXPECT_EQ(bitmap.reverse_in_train, bitmap1.reverse_in_train);
    EXPECT_EQ(bitmap.duplicate_in_train, bitmap1.duplicate_in_train);
    EXPECT_EQ(bitmap.reverse_duplicate_in_train,
              bitmap1.reverse_duplicate_in_train);
    EXPECT_EQ(bitmap.reverse_in_test, bitmap1.reverse_in_test);
    EXPECT_EQ(bitmap.duplicate_in_test, bitmap1.duplicate_in_test);
    EXPECT_EQ(bitmap.reverse_duplicate_in_test,
              bitmap1.reverse_duplicate_in_test);
  }
}

}  // namespace
}  // namespace kgc
