// Tests for the observability layer: metrics registry, trace spans and run
// reports, plus the counter bit-identity contract across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "eval/ranker.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "redundancy/leakage.h"
#include "rules/amie.h"

namespace kgc {
namespace {

// --- Registry --------------------------------------------------------------

TEST(MetricsTest, CounterGaugeBasics) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.ResetForTest();
  EXPECT_EQ(counter.value(), 0u);

  obs::Gauge gauge;
  EXPECT_FALSE(gauge.is_set());
  gauge.Set(0.25);
  EXPECT_TRUE(gauge.is_set());
  EXPECT_DOUBLE_EQ(gauge.value(), 0.25);
}

TEST(MetricsTest, HistogramBucketEdges) {
  // Bucket i counts v <= edges[i]; the 4th bucket is overflow.
  obs::Histogram histogram({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0}) histogram.Observe(v);
  EXPECT_EQ(histogram.bucket_count(0), 2u);  // 0.5, 1.0
  EXPECT_EQ(histogram.bucket_count(1), 2u);  // 1.5, 2.0
  EXPECT_EQ(histogram.bucket_count(2), 1u);  // 3.0
  EXPECT_EQ(histogram.bucket_count(3), 1u);  // 5.0 -> overflow
  EXPECT_EQ(histogram.count(), 6u);
  EXPECT_NEAR(histogram.sum(), 13.0, 1e-6);
}

TEST(MetricsTest, ExponentialBuckets) {
  const std::vector<double> edges = obs::ExponentialBuckets(0.001, 10.0, 4);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_NEAR(edges[0], 0.001, 1e-12);
  EXPECT_NEAR(edges[3], 1.0, 1e-9);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(MetricsTest, RegistryPreRegistersCanonicalSchema) {
  const obs::MetricsSnapshot snapshot = obs::Registry::Get().Snapshot();
  auto has_counter = [&](const char* name) {
    for (const obs::CounterSample& c : snapshot.counters) {
      if (c.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_counter(obs::kTrainerEpochs));
  EXPECT_TRUE(has_counter(obs::kRankerTriplesRanked));
  EXPECT_TRUE(has_counter(obs::kRedundancyPairsCompared));
  EXPECT_TRUE(has_counter(obs::kAmieCandidates));
  EXPECT_TRUE(has_counter(obs::kAmiePathPairs));
  EXPECT_TRUE(has_counter(obs::kAmieHubMediators));
  EXPECT_TRUE(has_counter(obs::kAmieBudgetCutMediators));
  EXPECT_TRUE(has_counter(obs::kCacheModelHits));
  EXPECT_TRUE(has_counter(obs::kCacheQuarantined));
  EXPECT_TRUE(has_counter(obs::kFaultsInjected));
}

TEST(MetricsTest, RegistryIsThreadSafe) {
  // Concurrent registration and updates from 4 threads; run under the TSan
  // mode of ci/sanitize.sh. The total must come out exact.
  obs::Counter& shared = obs::Registry::Get().GetCounter("test.concurrent");
  shared.ResetForTest();
  constexpr int kThreads = 4;
  constexpr int kIterations = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIterations; ++i) {
        obs::Registry::Get().GetCounter("test.concurrent").Increment();
        // Rotate through a few names so map insertion races are exercised.
        obs::Registry::Get()
            .GetCounter("test.rotating." + std::to_string((t + i) % 8))
            .Increment();
        obs::Registry::Get()
            .GetHistogram("test.hist", {1.0, 2.0})
            .Observe(0.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(shared.value(),
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_GE(obs::Registry::Get().GetHistogram("test.hist").count(),
            static_cast<uint64_t>(kThreads) * kIterations);
}

// --- Trace spans -----------------------------------------------------------

TEST(TraceTest, SpanNestingAndChromeExport) {
  obs::ResetTracingForTest();
  const std::string path = testing::TempDir() + "/obs_test_trace.json";
  obs::StartTracing(path);
  {
    obs::TraceSpan outer("outer");
    outer.AddArgStr("kind", "test");
    {
      obs::TraceSpan inner("inner");
      inner.AddArgInt("value", 7);
    }
  }
  const std::vector<obs::RecordedSpan> spans = obs::SnapshotSpansForTest();
  ASSERT_EQ(spans.size(), 2u);
  // Spans record at destruction, so the inner span lands first.
  const obs::RecordedSpan& inner = spans[0];
  const obs::RecordedSpan& outer = spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(outer.duration_us, inner.duration_us);

  ASSERT_TRUE(obs::FlushTrace());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  // Incremental drain writes a Chrome trace in JSON-array form: events
  // stream out as the run progresses and FlushTrace closes the array.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"kgc_clock_sync\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":" + std::to_string(outer.id)),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"test\""), std::string::npos);
  // Balanced braces is a cheap structural validity proxy (the smoke script
  // ci/obs_smoke.sh runs a real JSON parser over the same output).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  obs::ResetTracingForTest();
}

TEST(TraceTest, RollupsAggregateByName) {
  obs::ResetTracingForTest();
  obs::EnableSpanRollups();
  for (int i = 0; i < 3; ++i) {
    obs::TraceSpan span("rollup_unit");
  }
  const std::vector<obs::SpanRollup> rollups = obs::CollectSpanRollups();
  ASSERT_EQ(rollups.size(), 1u);
  EXPECT_EQ(rollups[0].name, "rollup_unit");
  EXPECT_EQ(rollups[0].count, 3u);
  EXPECT_GE(rollups[0].total_seconds, 0.0);
  EXPECT_LE(rollups[0].min_seconds, rollups[0].max_seconds);
  obs::ResetTracingForTest();
}

// --- Counter bit-identity across thread counts -----------------------------

// Constant-score predictor over the synthetic KG (ranking output does not
// matter here, only the instrumentation totals).
class FlatPredictor final : public LinkPredictor {
 public:
  explicit FlatPredictor(int32_t num_entities) : num_entities_(num_entities) {}
  const char* name() const override { return "Flat"; }
  int32_t num_entities() const override { return num_entities_; }
  void ScoreTails(EntityId, RelationId, std::span<float> out) const override {
    std::fill(out.begin(), out.end(), 0.5f);
  }
  void ScoreHeads(RelationId, EntityId, std::span<float> out) const override {
    std::fill(out.begin(), out.end(), 0.5f);
  }

 private:
  int32_t num_entities_;
};

obs::MetricsSnapshot RunInstrumentedPipeline(const SyntheticKg& kg,
                                             int threads) {
  obs::Registry::Get().ResetAllForTest();

  RankerOptions ranker_options;
  ranker_options.threads = threads;
  const FlatPredictor predictor(kg.dataset.num_entities());
  RankTriples(predictor, kg.dataset, kg.dataset.test(), ranker_options);

  DetectorOptions detector_options;
  detector_options.threads = threads;
  const RedundancyCatalog catalog =
      RedundancyCatalog::Detect(kg.dataset.train_store(), detector_options);
  ComputeRedundancyBitmap(kg.dataset, catalog, threads);

  MineRules(kg.dataset.train_store());

  return obs::Registry::Get().Snapshot();
}

TEST(DeterminismTest, CountersBitIdenticalAcrossThreadCounts) {
  const SyntheticKg kg = GenerateTiny(19);
  const obs::MetricsSnapshot serial = RunInstrumentedPipeline(kg, 1);
  const obs::MetricsSnapshot parallel = RunInstrumentedPipeline(kg, 4);
  ASSERT_EQ(serial.counters.size(), parallel.counters.size());
  for (size_t i = 0; i < serial.counters.size(); ++i) {
    EXPECT_EQ(serial.counters[i].name, parallel.counters[i].name);
    EXPECT_EQ(serial.counters[i].value, parallel.counters[i].value)
        << "counter " << serial.counters[i].name
        << " differs between 1 and 4 threads";
  }
  // And the work counters actually counted something. score_evals counts
  // one sweep per unique (relation, head) tail query plus one per unique
  // (relation, tail) head query, each over num_entities candidates.
  std::set<std::pair<RelationId, EntityId>> tail_queries;
  std::set<std::pair<RelationId, EntityId>> head_queries;
  for (const Triple& t : kg.dataset.test()) {
    tail_queries.emplace(t.relation, t.head);
    head_queries.emplace(t.relation, t.tail);
  }
  const uint64_t unique_queries = tail_queries.size() + head_queries.size();
  for (const obs::CounterSample& c : serial.counters) {
    if (c.name == obs::kRankerTriplesRanked) {
      EXPECT_EQ(c.value, kg.dataset.test().size());
    }
    if (c.name == obs::kRedundancyTriplesClassified) {
      EXPECT_EQ(c.value, kg.dataset.test().size());
    }
    if (c.name == obs::kRankerScoreEvals) {
      EXPECT_EQ(c.value, unique_queries * static_cast<uint64_t>(
                                              kg.dataset.num_entities()));
    }
    if (c.name == obs::kRankerQueryCacheMisses) {
      EXPECT_EQ(c.value, unique_queries);
    }
    if (c.name == obs::kRankerQueryCacheHits) {
      EXPECT_EQ(c.value, 2u * kg.dataset.test().size() - unique_queries);
    }
  }
  obs::Registry::Get().ResetAllForTest();
}

TEST(DeterminismTest, AmieEnumerationCountersAreExact) {
  // Chain 0 -r0-> 1 -r1-> 2 -r0-> 3 -r1-> 4: mediators 1, 2 and 3 have one
  // combination each. Entity 5 is a hub: entities 6..155 each point to it
  // by r0 and receive from it by r1 (150 x 150 = 22500 combinations), which
  // also makes each of them a one-combination mediator.
  TripleList triples = {{0, 0, 1}, {1, 1, 2}, {2, 0, 3}, {3, 1, 4}};
  for (EntityId e = 6; e <= 155; ++e) {
    triples.push_back({e, 0, 5});
    triples.push_back({5, 1, e});
  }
  const TripleStore store(triples, 156, 2);
  AmieOptions options;
  // Mediators 1 and 2 are admitted (the sum is 0, then 1); from mediator 3
  // on the sum (2) exceeds the budget: 3 and 6..155 are cut.
  options.max_path_combinations = 1;
  obs::Registry::Get().ResetAllForTest();
  MineRules(store, options);
  auto counter = [](const char* name) {
    return obs::Registry::Get().GetCounter(name).value();
  };
  // Bodies r0.r1 = {(0, 2)} through 1 and r1.r0 = {(1, 3)} through 2.
  EXPECT_EQ(counter(obs::kAmiePathPairs), 2u);
  EXPECT_EQ(counter(obs::kAmieHubMediators), 1u);
  EXPECT_EQ(counter(obs::kAmieBudgetCutMediators), 151u);
  obs::Registry::Get().ResetAllForTest();
}

// --- Run report ------------------------------------------------------------

TEST(ReportTest, RenderedReportIsSingleLineJson) {
  obs::RunInfo info;
  info.name = "obs \"quoted\" test";
  info.timestamp = "2026-08-06T00:00:00Z";
  info.threads = 4;
  info.wall_seconds = 1.25;
  info.exit_code = 0;
  const std::string json = obs::RenderRunReport(info);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"schema\":\"kgc.run_report.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs \\\"quoted\\\" test\""),
            std::string::npos);
  EXPECT_NE(json.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(json.find(obs::kTrainerEpochs), std::string::npos);
  EXPECT_NE(json.find(obs::kCacheQuarantined), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ReportTest, ExitCauseIsRecordedOrDerived) {
  obs::SetRunExitCause("");
  obs::RunInfo info;
  info.name = "cause_test";

  // No explicit cause, exit 0: derived "ok".
  info.exit_code = 0;
  EXPECT_NE(obs::RenderRunReport(info).find("\"exit_cause\":\"ok\""),
            std::string::npos);

  // No explicit cause, nonzero exit: derived "exit:<n>".
  info.exit_code = 3;
  EXPECT_NE(obs::RenderRunReport(info).find("\"exit_cause\":\"exit:3\""),
            std::string::npos);

  // Explicit per-report cause wins.
  info.exit_cause = "deadline:train_epoch";
  EXPECT_NE(obs::RenderRunReport(info).find(
                "\"exit_cause\":\"deadline:train_epoch\""),
            std::string::npos);

  // Process-global cause (what crash handlers set) backs an empty field.
  info.exit_cause.clear();
  obs::SetRunExitCause("signal:SIGTERM");
  EXPECT_EQ(obs::RunExitCause(), "signal:SIGTERM");
  EXPECT_NE(obs::RenderRunReport(info).find(
                "\"exit_cause\":\"signal:SIGTERM\""),
            std::string::npos);
  obs::SetRunExitCause("");
}

TEST(ReportTest, AppendAccumulatesJsonlLines) {
  const std::string path = testing::TempDir() + "/obs_test_report.jsonl";
  std::remove(path.c_str());
  obs::RunInfo info;
  info.name = "run_a";
  ASSERT_TRUE(obs::AppendRunReport(path, info));
  info.name = "run_b";
  ASSERT_TRUE(obs::AppendRunReport(path, info));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"schema\":\"kgc.run_report.v1\""),
              std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgc
