// Tests for the top-K retrieval engine (eval/topk.h): oracle agreement
// across all ten models, K values, thread counts and filtered/unfiltered;
// counter determinism across thread counts; kernel-path invariance; and the
// fallback path for sweep-less predictors.

#include "eval/topk.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "models/model.h"
#include "obs/metrics.h"
#include "util/vecmath.h"

namespace kgc {
namespace {

constexpr int32_t kEntities = 150;
constexpr int32_t kRelations = 6;

ModelHyperParams SmallParams(ModelType type) {
  ModelHyperParams params = DefaultHyperParams(type);
  params.dim = 16;
  params.dim2 = 4;
  params.seed = 11;
  return params;
}

// A deterministic query mix: both directions, several relations, shared
// (direction, relation) groups of varying size, and a watch entity per
// query so the watch path is always exercised. The mix has six groups.
std::vector<TopKQuery> MakeQueries(int count = 40) {
  std::vector<TopKQuery> queries;
  for (int i = 0; i < count; ++i) {
    TopKQuery q;
    q.tails = (i % 3) != 0;
    q.relation = static_cast<RelationId>((i * 7) % kRelations);
    q.anchor = static_cast<EntityId>((i * 13) % kEntities);
    q.watch = {static_cast<EntityId>((i * 29 + 1) % kEntities)};
    queries.push_back(q);
  }
  return queries;
}

// A filter store with deterministic contents so the filtered lists differ
// from the raw ones.
TripleStore MakeFilter() {
  TripleList triples;
  for (int i = 0; i < 600; ++i) {
    triples.push_back(Triple{static_cast<EntityId>((i * 17) % kEntities),
                             static_cast<RelationId>(i % kRelations),
                             static_cast<EntityId>((i * 5 + 2) % kEntities)});
  }
  return TripleStore(triples, kEntities, kRelations);
}

uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

// kgc.topk.{tiles_pruned, entities_scored, heap_pushes, queries_batched}.
std::vector<uint64_t> TopKCounters() {
  std::vector<uint64_t> values;
  for (const char* name :
       {obs::kTopKTilesPruned, obs::kTopKEntitiesScored, obs::kTopKHeapPushes,
        obs::kTopKQueriesBatched}) {
    values.push_back(obs::Registry::Get().GetCounter(name).value());
  }
  return values;
}

void ExpectEntriesEqual(const std::vector<TopKEntry>& actual,
                        const std::vector<TopKEntry>& expected,
                        const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t j = 0; j < actual.size(); ++j) {
    EXPECT_EQ(actual[j].entity, expected[j].entity) << what << " pos " << j;
    EXPECT_EQ(Bits(actual[j].score), Bits(expected[j].score))
        << what << " pos " << j;
  }
}

void ExpectResultsEqual(const std::vector<TopKResult>& actual,
                        const std::vector<TopKResult>& expected,
                        const char* what) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ExpectEntriesEqual(actual[i].raw, expected[i].raw, what);
    ExpectEntriesEqual(actual[i].filtered, expected[i].filtered, what);
    ASSERT_EQ(actual[i].watch_scores.size(), expected[i].watch_scores.size());
    for (size_t w = 0; w < actual[i].watch_scores.size(); ++w) {
      EXPECT_EQ(Bits(actual[i].watch_scores[w]),
                Bits(expected[i].watch_scores[w]))
          << what << " watch " << w;
    }
  }
}

class TopKModelTest : public ::testing::TestWithParam<ModelType> {};

// The core contract: for every model, K and filter setting, the fast path
// equals the truncated full ranking bit for bit. 160 queries over six
// groups give every group at least three blocks of kSweepQueryBlock.
TEST_P(TopKModelTest, MatchesOracleBitForBit) {
  const auto model = CreateModel(GetParam(), kEntities, kRelations,
                                 SmallParams(GetParam()));
  const auto queries = MakeQueries(160);
  const TripleStore filter = MakeFilter();
  for (int k : {1, 10, 100}) {
    for (const TripleStore* f : {static_cast<const TripleStore*>(nullptr),
                                 &filter}) {
      TopKOptions options;
      options.k = k;
      options.threads = 1;
      options.tile_rows = 32;  // several tiles even at 150 entities
      const TopKEngine engine(*model, options);
      const auto results = engine.Run(queries, f);
      ASSERT_EQ(results.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const TopKResult oracle =
            TopKEngine::OracleTopK(*model, queries[i], k, f);
        SCOPED_TRACE(testing::Message()
                     << ModelTypeName(GetParam()) << " k=" << k
                     << " filtered=" << (f != nullptr) << " query " << i);
        ExpectEntriesEqual(results[i].raw, oracle.raw, "raw");
        ExpectEntriesEqual(results[i].filtered, oracle.filtered, "filtered");
        ASSERT_EQ(results[i].watch_scores.size(), oracle.watch_scores.size());
        EXPECT_EQ(Bits(results[i].watch_scores[0]),
                  Bits(oracle.watch_scores[0]));
      }
    }
  }
}

// Results AND kgc.topk.* counters must be bit-identical for any thread
// count: groups are sharded whole, and counter merges are integer sums.
TEST_P(TopKModelTest, ThreadCountInvariance) {
  const auto model = CreateModel(GetParam(), kEntities, kRelations,
                                 SmallParams(GetParam()));
  const auto queries = MakeQueries();
  const TripleStore filter = MakeFilter();

  std::vector<TopKResult> reference;
  std::vector<uint64_t> reference_delta;
  for (int threads : {1, 2, 4}) {
    TopKOptions options;
    options.threads = threads;
    options.tile_rows = 32;
    const TopKEngine engine(*model, options);
    const auto before = TopKCounters();
    const auto results = engine.Run(queries, &filter);
    const auto after = TopKCounters();
    std::vector<uint64_t> delta(before.size());
    for (size_t i = 0; i < before.size(); ++i) delta[i] = after[i] - before[i];
    if (threads == 1) {
      reference = results;
      reference_delta = delta;
    } else {
      ExpectResultsEqual(results, reference, "threads");
      EXPECT_EQ(delta, reference_delta) << "threads=" << threads;
    }
  }
}

// The generic and native kernel paths share the fixed-order reduction, so
// the fast path must return identical bits on both.
TEST_P(TopKModelTest, KernelPathInvariance) {
  if (!vec::NativeKernelsAvailable()) {
    GTEST_SKIP() << "native kernel path not compiled in or unsupported CPU";
  }
  const auto model = CreateModel(GetParam(), kEntities, kRelations,
                                 SmallParams(GetParam()));
  const auto queries = MakeQueries();
  const TripleStore filter = MakeFilter();
  TopKOptions options;
  options.threads = 1;
  options.tile_rows = 32;
  const TopKEngine engine(*model, options);

  const vec::KernelPath saved_path = vec::ActiveKernelPath();
  vec::SetKernelPathForTest(vec::KernelPath::kGeneric);
  const auto generic = engine.Run(queries, &filter);
  vec::SetKernelPathForTest(vec::KernelPath::kNative);
  const auto native = engine.Run(queries, &filter);
  vec::SetKernelPathForTest(saved_path);
  ExpectResultsEqual(native, generic, "kernel path");
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TopKModelTest,
    ::testing::Values(ModelType::kTransE, ModelType::kTransH,
                      ModelType::kTransR, ModelType::kTransD,
                      ModelType::kRescal, ModelType::kDistMult,
                      ModelType::kComplEx, ModelType::kRotatE,
                      ModelType::kTuckER, ModelType::kConvE),
    [](const ::testing::TestParamInfo<ModelType>& info) {
      return ModelTypeName(info.param);
    });

// A predictor with no kernel sweep: the engine must take the fallback path
// and still match the oracle exactly.
class StripedPredictor : public LinkPredictor {
 public:
  const char* name() const override { return "striped"; }
  int32_t num_entities() const override { return kEntities; }
  void ScoreCandidates(bool tails, RelationId r, EntityId anchor,
                       std::span<float> out) const override {
    for (size_t e = 0; e < out.size(); ++e) {
      out[e] = tails
                   ? static_cast<float>((e * 31 + anchor * 7 + r) % 97) / 97.0f
                   : static_cast<float>((e * 13 + anchor * 5 + r) % 89) / 89.0f;
    }
  }
};

// The fallback must match the oracle at any tile size, with exact
// kgc.topk.* deltas: each query pushes its candidates in ascending entity
// order and deferred filter probes only ever see a tighter threshold, so
// neither the tile size nor the probe batch may move heap_pushes (2856 is
// also what a one-query-at-a-time full sweep pushes), and the fallback
// counts no batched queries.
TEST(TopKFallbackTest, SweeplessPredictorMatchesOracle) {
  // Deliberately tie-heavy scores (97 distinct values over 150 entities):
  // the entity-id tie-break must resolve them identically on both paths.
  const StripedPredictor predictor;
  const auto queries = MakeQueries();
  const TripleStore filter = MakeFilter();
  for (int tile_rows : {32, static_cast<int>(kSweepTileRows)}) {
    SCOPED_TRACE(testing::Message() << "tile_rows=" << tile_rows);
    TopKOptions options;
    options.k = 10;
    options.tile_rows = tile_rows;
    const TopKEngine engine(predictor, options);
    const auto before = TopKCounters();
    const auto results = engine.Run(queries, &filter);
    const auto after = TopKCounters();
    EXPECT_EQ(after[0] - before[0], 0u);               // tiles_pruned
    EXPECT_EQ(after[1] - before[1], 40u * kEntities);  // entities_scored
    EXPECT_EQ(after[2] - before[2], 2856u);            // heap_pushes
    EXPECT_EQ(after[3] - before[3], 0u);               // queries_batched
    for (size_t i = 0; i < queries.size(); ++i) {
      const TopKResult oracle =
          TopKEngine::OracleTopK(predictor, queries[i], options.k, &filter);
      ExpectEntriesEqual(results[i].raw, oracle.raw, "raw");
      ExpectEntriesEqual(results[i].filtered, oracle.filtered, "filtered");
    }
  }
}

TEST(TopKOptionsTest, KLargerThanEntityCountReturnsEverything) {
  const auto model = CreateModel(ModelType::kTransE, kEntities, kRelations,
                                 SmallParams(ModelType::kTransE));
  TopKOptions options;
  options.k = kEntities + 50;
  const TopKEngine engine(*model, options);
  TopKQuery query;
  query.relation = 1;
  query.anchor = 3;
  const auto results = engine.Run(std::vector<TopKQuery>{query}, nullptr);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].raw.size(), static_cast<size_t>(kEntities));
  // Sorted best-first with no duplicate entities.
  for (size_t j = 1; j < results[0].raw.size(); ++j) {
    const TopKEntry& prev = results[0].raw[j - 1];
    const TopKEntry& cur = results[0].raw[j];
    EXPECT_TRUE(prev.score > cur.score ||
                (prev.score == cur.score && prev.entity < cur.entity));
  }
}

}  // namespace
}  // namespace kgc
