// reeval: the paper's re-evaluation pipeline on ScaleSpec(10000).
//
// Set-up (repeated, median reported): GenerateKg + indexing the stores.
// One pass (wall_s): RedundancyCatalog::Detect -> MakeFb237Like ->
// MineRules -> TrainModel(TransE, DistMult) on the original and the cleaned
// split -> rank TransE, DistMult and SimpleRuleModel on both splits
// (RankTriples + ComputeMetrics, which is what EvaluatePredictor does; the
// rank table itself is kept for its CRC). The layers are called directly:
// ExperimentContext's model and rank caches would turn pass N into a cache
// hit of pass N-1.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "eval/metrics.h"
#include "eval/ranker.h"
#include "models/model.h"
#include "models/trainer.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "redundancy/cleaner.h"
#include "redundancy/leakage.h"
#include "rules/amie.h"
#include "rules/simple_rule_model.h"
#include "trace.h"
#include "util/crc32.h"
#include "util/file_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

using kgc::Dataset;
using kgc::KgeModel;
using kgc::ModelType;

/// Training epochs per model per split: a fixed small budget, so a pass
/// measures the trainer without dominating the pipeline.
constexpr int kEpochs = 3;
constexpr int kSmokeEpochs = 1;
/// Set-up repetitions (median reported).
constexpr int kSetupReps = 5;
/// A pass (one re-evaluation request) is on time within this.
constexpr double kPassLimitS = 10.0;

struct TableResult {
  std::string key;  ///< "<predictor>.<split>"
  uint32_t crc = 0;
  double fmrr = 0.0;
  double fhits10 = 0.0;
  size_t triples = 0;
  double rank_s = 0.0;
  /// Slowest ranker shard over the mean shard (traced runs only).
  double shard_imbalance = 0.0;
};

struct PassResult {
  double wall_s = 0.0;
  double rank_s = 0.0;
  size_t ranked = 0;
  size_t rules = 0;
  size_t clean_train = 0;
  std::vector<TableResult> tables;
  std::unique_ptr<KgeModel> transe;    ///< trained on the original split
  std::unique_ptr<KgeModel> distmult;  ///< trained on the original split
};

uint32_t RankTableCrc(const std::vector<kgc::TripleRanks>& ranks) {
  uint32_t crc = 0;
  for (const kgc::TripleRanks& r : ranks) {
    const int32_t ids[3] = {r.triple.head, r.triple.relation, r.triple.tail};
    const double values[4] = {r.head_raw, r.head_filtered, r.tail_raw,
                              r.tail_filtered};
    crc = kgc::Crc32Update(crc, ids, sizeof(ids));
    crc = kgc::Crc32Update(crc, values, sizeof(values));
  }
  return crc;
}

TableResult RankOne(const kgc::LinkPredictor& predictor, const Dataset& data,
                    const std::string& key, int threads = 0) {
  TableResult table;
  table.key = key;
  std::vector<kgc::TripleRanks> ranks;
  kgc::obs::HdrHistogram& shards =
      kgc::obs::Registry::Get().GetDurationHistogram(
          kgc::obs::kRankerShardSeconds);
  const bool traced = Tracer::Get().enabled();
  if (traced) shards.ResetForTest();  // this call's shards only
  {
    Span span("eval.rank." + key);
    const double start = NowSeconds();
    kgc::RankerOptions options;
    options.threads = threads;
    ranks = kgc::RankTriples(predictor, data, data.test(), options);
    table.rank_s = NowSeconds() - start;
  }
  if (traced && shards.count() > 0) {
    table.shard_imbalance = shards.MaxEstimate() /
                            (shards.sum() / static_cast<double>(shards.count()));
  }
  Span span("eval.metrics." + key);
  const kgc::LinkPredictionMetrics metrics = kgc::ComputeMetrics(ranks);
  table.crc = RankTableCrc(ranks);
  table.fmrr = metrics.fmrr;
  table.fhits10 = metrics.fhits10;
  table.triples = ranks.size();
  return table;
}

std::unique_ptr<KgeModel> Train(ModelType type, const Dataset& data,
                                const std::string& split, int epochs,
                                uint64_t seed) {
  Span span(std::string("models.train.") + kgc::ModelTypeName(type) + "." +
            split);
  auto model = kgc::CreateModel(type, data.num_entities(),
                                data.num_relations(),
                                kgc::DefaultHyperParams(type));
  kgc::TrainOptions options = kgc::DefaultTrainOptions(type);
  options.epochs = epochs;
  options.seed = seed;
  kgc::TrainModel(*model, data, options);
  return model;
}

PassResult RunPass(const Dataset& original, int epochs, uint64_t train_seed,
                   bool keep_models) {
  PassResult pass;
  const double start = NowSeconds();
  Span pass_span("reeval.pass");

  kgc::RedundancyCatalog catalog;
  {
    Span span("redundancy.detect");
    catalog = kgc::RedundancyCatalog::Detect(original.train_store());
  }
  Dataset cleaned;
  {
    Span span("redundancy.clean");
    cleaned = kgc::MakeFb237Like(original, catalog,
                                 original.name() + "-237");
    cleaned.train_store();
    cleaned.all_store();
  }
  pass.clean_train = cleaned.train().size();
  {
    Span span("rules.mine");
    pass.rules = kgc::MineRules(original.train_store()).size();
  }

  const std::pair<const Dataset*, const char*> splits[2] = {
      {&original, "orig"}, {&cleaned, "clean"}};
  for (const auto& [data, split] : splits) {
    auto transe = Train(ModelType::kTransE, *data, split, epochs, train_seed);
    auto distmult =
        Train(ModelType::kDistMult, *data, split, epochs, train_seed);
    std::unique_ptr<kgc::SimpleRuleModel> simple;
    {
      Span span(std::string("rules.simple_build.") + split);
      simple = std::make_unique<kgc::SimpleRuleModel>(data->train_store());
    }
    pass.tables.push_back(
        RankOne(*transe, *data, std::string("TransE.") + split));
    pass.tables.push_back(
        RankOne(*distmult, *data, std::string("DistMult.") + split));
    pass.tables.push_back(
        RankOne(*simple, *data, std::string("SimpleModel.") + split));
    if (keep_models && data == &original) {
      pass.transe = std::move(transe);
      pass.distmult = std::move(distmult);
    }
  }
  for (const TableResult& table : pass.tables) {
    pass.rank_s += table.rank_s;
    pass.ranked += table.triples;
  }
  pass.wall_s = NowSeconds() - start;
  return pass;
}

kgc::GeneratorSpec WorkloadSpec(const RunOptions& options) {
  return options.smoke ? kgc::TinySpec() : kgc::ScaleSpec(10000);
}

std::string ReferenceKey(const kgc::GeneratorSpec& spec, int epochs,
                         uint64_t seed) {
  return spec.name + "/e" + std::to_string(epochs) + "/seed" +
         std::to_string(seed);
}

std::string TablesJson(const PassResult& pass) {
  std::string json = "{\"rules\": " + std::to_string(pass.rules) +
                     ", \"clean_train\": " +
                     std::to_string(pass.clean_train) + ", \"tables\": {";
  for (size_t i = 0; i < pass.tables.size(); ++i) {
    const TableResult& t = pass.tables[i];
    json += (i ? ", " : "") + JsonString(t.key) + ": {\"crc\": " +
            std::to_string(t.crc) + ", \"fmrr\": " + JsonNumber(t.fmrr) +
            ", \"fhits10\": " + JsonNumber(t.fhits10) + "}";
  }
  return json + "}}";
}

/// Loads the stored reference for `key`; false when the file has none.
bool LoadReference(const std::string& path, const std::string& key,
                   kgc::obs::JsonValue* out) {
  auto text = kgc::ReadFileToString(path);
  if (!text.ok()) return false;
  kgc::obs::JsonValue root;
  if (!kgc::obs::JsonValue::Parse(*text, &root)) return false;
  const kgc::obs::JsonValue* refs = root.Find("references");
  const kgc::obs::JsonValue* entry = refs ? refs->Find(key) : nullptr;
  if (entry == nullptr) return false;
  *out = *entry;
  return true;
}

double Field(const kgc::obs::JsonValue* object, const char* name) {
  const kgc::obs::JsonValue* value = object ? object->Find(name) : nullptr;
  return value ? value->AsNumber(-1.0) : -1.0;
}

bool SameTable(const TableResult& t, const kgc::obs::JsonValue* want) {
  return static_cast<double>(t.crc) == Field(want, "crc") &&
         t.fmrr == Field(want, "fmrr") && t.fhits10 == Field(want, "fhits10");
}

bool SameTable(const TableResult& a, const TableResult& b) {
  return a.crc == b.crc && a.fmrr == b.fmrr && a.fhits10 == b.fhits10;
}

/// Dataset + indexed stores, timed as the workload's set-up.
struct SetupResult {
  Dataset data;
  double generate_s = 0.0;
  double index_s = 0.0;
};

SetupResult Setup(const kgc::GeneratorSpec& spec, uint64_t data_seed) {
  SetupResult setup;
  const double start = NowSeconds();
  {
    Span span("datagen.generate");
    setup.data = kgc::GenerateKg(spec, data_seed).dataset;
  }
  const double generated = NowSeconds();
  {
    Span span("kg.index");
    setup.data.train_store();
    setup.data.all_store();
  }
  setup.generate_s = generated - start;
  setup.index_s = NowSeconds() - generated;
  return setup;
}

uint64_t CounterValue(const char* name) {
  return kgc::obs::Registry::Get().GetCounter(name).value();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int EmitReevalReference(const RunOptions& options, const InputSeeds& seeds) {
  const kgc::GeneratorSpec spec = WorkloadSpec(options);
  const int epochs = options.smoke ? kSmokeEpochs : kEpochs;
  SetupResult setup = Setup(spec, seeds.data);
  const PassResult pass = RunPass(setup.data, epochs, seeds.train, false);
  std::printf("%s: %s\n",
              JsonString(ReferenceKey(spec, epochs, seeds.workload)).c_str(),
              TablesJson(pass).c_str());
  return 0;
}

RunResult RunReeval(const RunOptions& options, const InputSeeds& seeds) {
  RunResult result;
  Tracer& tracer = Tracer::Get();
  const kgc::GeneratorSpec spec = WorkloadSpec(options);
  const int epochs = options.smoke ? kSmokeEpochs : kEpochs;
  result.Detail("scale_spec",
                "{\"name\": " + JsonString(spec.name) + ", \"entities\": " +
                    std::to_string(spec.num_entities()) +
                    ", \"epochs\": " + std::to_string(epochs) + "}");

  // Set-up, repeated; the last dataset is the one measured.
  std::vector<double> setup_s, generate_s, index_s;
  SetupResult setup;
  for (int rep = 0; rep < (options.smoke ? 2 : kSetupReps); ++rep) {
    setup = Setup(spec, seeds.data);
    setup_s.push_back(setup.generate_s + setup.index_s);
    generate_s.push_back(setup.generate_s);
    index_s.push_back(setup.index_s);
  }
  const Dataset& data = setup.data;
  result.Detail("dataset", "{\"train\": " +
                               std::to_string(data.train().size()) +
                               ", \"valid\": " +
                               std::to_string(data.valid().size()) +
                               ", \"test\": " +
                               std::to_string(data.test().size()) + "}");

  // Untimed warm-up: the first ranking after idle runs several times
  // slower than a warm one.
  const bool traced = tracer.enabled();
  tracer.Enable(false);
  const PassResult warmup = RunPass(data, epochs, seeds.train, false);

  const uint64_t hits0 = CounterValue(kgc::obs::kStoreProbeBatchHits);
  const uint64_t misses0 = CounterValue(kgc::obs::kStoreProbeBatchMisses);
  const uint64_t pairs0 = CounterValue(kgc::obs::kRedundancyPairsCompared);
  const uint64_t cand0 = CounterValue(kgc::obs::kAmieCandidates);
  const uint64_t examples0 = CounterValue(kgc::obs::kTrainerExamples);
  const uint64_t evals0 = CounterValue(kgc::obs::kRankerScoreEvals);
  const uint64_t qhits0 = CounterValue(kgc::obs::kRankerQueryCacheHits);
  const uint64_t qmiss0 = CounterValue(kgc::obs::kRankerQueryCacheMisses);

  // Timed window. The traced run alternates untraced and traced passes;
  // the difference of their medians is the tracing overhead.
  std::vector<PassResult> passes;
  std::vector<double> untraced_wall, traced_wall;
  const CpuTicks ticks0 = ReadCpuTicks();
  const double window_start = NowSeconds();
  do {
    const bool trace_this = traced && passes.size() % 2 == 1;
    tracer.Enable(trace_this);
    passes.push_back(RunPass(data, epochs, seeds.train, true));
    (trace_this ? traced_wall : untraced_wall).push_back(
        passes.back().wall_s);
  } while (NowSeconds() - window_start < options.seconds ||
           (traced && traced_wall.empty()));
  tracer.Enable(traced);
  result.Detail("host_steal_frac",
                JsonNumber(StealFraction(ticks0, ReadCpuTicks())));

  // Output checks.
  kgc::obs::JsonValue reference;
  const std::string key = ReferenceKey(spec, epochs, seeds.workload);
  const bool have_reference =
      LoadReference(kReferencePath, key, &reference);
  int reference_mismatches = 0;
  int repeat_mismatches = 0;
  const kgc::obs::JsonValue* ref_tables = reference.Find("tables");
  for (const PassResult& pass : passes) {
    if (have_reference &&
        (static_cast<double>(pass.rules) != Field(&reference, "rules") ||
         static_cast<double>(pass.clean_train) !=
             Field(&reference, "clean_train"))) {
      ++reference_mismatches;
    }
    for (size_t i = 0; i < pass.tables.size(); ++i) {
      const TableResult& t = pass.tables[i];
      const bool repeat_ok = SameTable(t, warmup.tables[i]);
      const bool reference_ok =
          !have_reference ||
          SameTable(t, ref_tables ? ref_tables->Find(t.key) : nullptr);
      repeat_mismatches += repeat_ok ? 0 : 1;
      reference_mismatches += reference_ok ? 0 : 1;
      result.attempted++;
      if (!repeat_ok || !reference_ok) result.failed++;
    }
  }
  // Thread-count oracle: ranking is bit-deterministic for any KGC_THREADS,
  // so a one-thread re-rank must reproduce the timed table exactly.
  tracer.Enable(false);
  const PassResult& last = passes.back();
  const TableResult single =
      RankOne(*last.transe, data, "TransE.orig", /*threads=*/1);
  tracer.Enable(traced);
  // Seeds without a stored reference still get the repeat and one-thread
  // oracles below.
  if (have_reference) {
    result.Check("reeval.reference_match", reference_mismatches == 0);
  }
  result.Check("reeval.repeat_identical", repeat_mismatches == 0);
  result.Check("reeval.one_thread_identical",
               single.crc == last.tables[0].crc);
  result.Detail("reference_key", JsonString(key));
  result.Detail("reference_available", have_reference ? "true" : "false");
  result.Detail("reference_mismatches", std::to_string(reference_mismatches));
  result.Detail("tables", TablesJson(last));
  result.Detail("passes", std::to_string(passes.size()));

  std::vector<double> wall, rank_tput, pass_tput, imbalance;
  for (const PassResult& pass : passes) {
    wall.push_back(pass.wall_s);
    rank_tput.push_back(static_cast<double>(pass.ranked) / pass.rank_s);
    pass_tput.push_back(static_cast<double>(pass.ranked) / pass.wall_s);
    for (const TableResult& t : pass.tables) {
      if (t.shard_imbalance > 0) imbalance.push_back(t.shard_imbalance);
    }
  }
  size_t on_time = 0;
  for (double s : wall) on_time += s <= kPassLimitS ? 1 : 0;

  if (!traced) {
    // The operation is one re-evaluation pass; qps counts ranked test
    // triples per second of it.
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("wall_s", Median(wall), "s");
    result.Add("rank_triples_per_s", Median(rank_tput), "1/s");
    result.Add("qps", Median(pass_tput), "1/s");
    result.Add("on_time_frac",
               static_cast<double>(on_time) / static_cast<double>(wall.size()),
               "ratio");
    result.Add("peak_rss_mb", SelfPeakRssMb(), "MiB");
    std::string walls = "[";
    for (double w : wall) walls += (walls.size() > 1 ? ", " : "") + JsonNumber(w);
    result.Detail("pass_wall_s", walls + "]");
    return result;
  }

  // Per-layer metrics from the traced passes' spans and the program's own
  // counters.
  const auto median_of = [&](const std::string& name) {
    return Median(tracer.Durations(name));
  };
  result.Add("datagen.generate_s", Median(generate_s), "s");
  result.Add("kg.index_s", Median(index_s), "s");
  const double hits = static_cast<double>(
      CounterValue(kgc::obs::kStoreProbeBatchHits) - hits0);
  const double misses = static_cast<double>(
      CounterValue(kgc::obs::kStoreProbeBatchMisses) - misses0);
  result.Add("kg.probe_hit_frac", Ratio(hits, hits + misses), "ratio");
  result.Add("redundancy.detect_s", median_of("redundancy.detect"), "s");
  result.Add("redundancy.clean_s", median_of("redundancy.clean"), "s");
  const double npasses = static_cast<double>(passes.size());
  result.Add("redundancy.pairs_compared",
             static_cast<double>(
                 CounterValue(kgc::obs::kRedundancyPairsCompared) - pairs0) /
                 npasses,
             "count");
  result.Add("rules.mine_s", median_of("rules.mine"), "s");
  result.Add("rules.candidates",
             static_cast<double>(CounterValue(kgc::obs::kAmieCandidates) -
                                 cand0) /
                 npasses,
             "count");
  const double simple_rank_s =
      tracer.Total("rules.simple_build.orig") +
      tracer.Total("rules.simple_build.clean") +
      tracer.Total("eval.rank.SimpleModel.orig") +
      tracer.Total("eval.rank.SimpleModel.clean");
  const double ntraced = static_cast<double>(traced_wall.size());
  result.Add("rules.rank_s", simple_rank_s / ntraced, "s");
  double train_total = 0.0;
  for (const char* model : {"TransE", "DistMult"}) {
    std::vector<double> per_epoch;
    for (const char* split : {"orig", "clean"}) {
      for (double d : tracer.Durations(std::string("models.train.") + model +
                                       "." + split)) {
        per_epoch.push_back(d / epochs);
        train_total += d;
      }
    }
    result.Add(std::string("models.train_epoch_s.") + model,
               Median(per_epoch), "s");
  }
  // The trainer counts examples in every pass; scale to the traced ones.
  const double examples_per_pass =
      static_cast<double>(CounterValue(kgc::obs::kTrainerExamples) -
                          examples0) /
      npasses;
  result.Add("models.examples_per_s",
             Ratio(examples_per_pass * ntraced, train_total), "1/s");
  double rank_total = 0.0;
  double ranked_total = 0.0;
  for (const char* model : {"TransE", "DistMult", "SimpleModel"}) {
    for (const char* split : {"orig", "clean"}) {
      const std::string name =
          std::string("eval.rank.") + model + "." + split;
      result.Add(std::string("eval.rank_s.") + model + "." + split,
                 median_of(name), "s");
      rank_total += tracer.Total(name);
    }
  }
  for (const TableResult& t : last.tables) {
    ranked_total += static_cast<double>(t.triples) * ntraced;
  }
  result.Add("eval.rank_us_per_triple", Ratio(rank_total, ranked_total) * 1e6,
             "us");
  result.Add("eval.score_evals",
             static_cast<double>(CounterValue(kgc::obs::kRankerScoreEvals) -
                                 evals0) /
                 npasses,
             "count");
  const double qhits = static_cast<double>(
      CounterValue(kgc::obs::kRankerQueryCacheHits) - qhits0);
  const double qmiss = static_cast<double>(
      CounterValue(kgc::obs::kRankerQueryCacheMisses) - qmiss0);
  result.Add("eval.query_cache_hit_frac", Ratio(qhits, qhits + qmiss),
             "ratio");
  result.Add("eval.shard_imbalance", Median(imbalance), "ratio");
  TimeVecmathKernels(*last.transe, *last.distmult, result);

  // Stage coverage: the stage spans should account for the pass.
  double stages = 0.0;
  for (const auto& [name, total] : tracer.ChildTotals("reeval.pass")) {
    stages += total;
  }
  result.Add("obs.stage_coverage_frac",
             Ratio(stages, tracer.Total("reeval.pass")), "ratio");
  result.Add("obs.trace_overhead_frac",
             Median(traced_wall) / Median(untraced_wall) - 1.0, "ratio");
  FillUnreachedLayers(result);
  return result;
}

}  // namespace perfbench
