#include "bench/bench_common.h"

#include <algorithm>
#include <bit>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgc::bench {
namespace {

// Matches argv[*i] against `--name=value` or the two-token `--name value`
// form (advancing *i past the consumed value token). The shared primitive
// behind BenchTelemetry's flag stripping and the public Consume*Flag
// helpers, so every bench flag accepts both spellings.
bool MatchValueFlag(char** argv, int argc, int* i, const char* name,
                    std::string* value) {
  const std::string arg = argv[*i];
  const std::string prefix = std::string(name) + "=";
  if (arg.starts_with(prefix)) {
    *value = arg.substr(prefix.size());
    return true;
  }
  if (arg == name && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

// The telemetry bracket the crash hooks flush. One per process: bench
// binaries construct exactly one BenchTelemetry, and the hooks are only
// meaningful for it.
BenchTelemetry* g_active_telemetry = nullptr;

struct SignalName {
  int signal;
  const char* name;
};
constexpr SignalName kFatalSignals[] = {
    {SIGSEGV, "SIGSEGV"}, {SIGBUS, "SIGBUS"}, {SIGFPE, "SIGFPE"},
    {SIGILL, "SIGILL"},   {SIGABRT, "SIGABRT"}, {SIGTERM, "SIGTERM"},
    {SIGINT, "SIGINT"},
};

// Fatal-signal hook: attribute the run, flush report + trace, then die
// with the original signal so the parent (tools/kgc_suite) still sees the
// true exit status. Rendering JSON is not async-signal-safe; on a crash
// path a best-effort report beats none, and the re-raise below bounds the
// damage to losing the report line.
void CrashSignalHandler(int signal) {
  const char* name = "unknown";
  for (const SignalName& s : kFatalSignals) {
    if (s.signal == signal) name = s.name;
  }
  obs::SetRunExitCause(std::string("signal:") + name);
  if (g_active_telemetry != nullptr) {
    g_active_telemetry->Finish(128 + signal);
  }
  std::signal(signal, SIG_DFL);
  std::raise(signal);
}

// atexit fallback: a library called std::exit without going through
// RunBench (the deadline handler does exactly that). Finish is idempotent,
// so the normal path — where RunBench already finished — is a no-op.
void FlushReportAtExit() {
  if (g_active_telemetry == nullptr) return;
  const std::string cause = obs::RunExitCause();
  if (cause.empty()) obs::SetRunExitCause("early_exit");
  const int exit_code =
      cause.starts_with("deadline:") ? kDeadlineExitCode : -1;
  g_active_telemetry->Finish(exit_code);
}

void InstallCrashHooks(BenchTelemetry* telemetry) {
  g_active_telemetry = telemetry;
  static const bool installed = [] {
    for (const SignalName& s : kFatalSignals) {
      std::signal(s.signal, CrashSignalHandler);
    }
    std::atexit(FlushReportAtExit);
    return true;
  }();
  (void)installed;
}

}  // namespace

BenchTelemetry::BenchTelemetry(const char* name, int* argc, char** argv)
    : name_(name), report_path_(obs::MetricsPathFromEnv()) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string value;
    if (MatchValueFlag(argv, *argc, &i, "--report", &value)) {
      report_path_ = value;
    } else if (MatchValueFlag(argv, *argc, &i, "--trace", &value)) {
      obs::StartTracing(value);
    } else if (MatchValueFlag(argv, *argc, &i, "--log-level", &value)) {
      LogLevel level;
      if (ParseLogLevel(value, &level)) {
        SetLogLevel(level);
      } else {
        LogWarning("unknown --log-level value '%s' ignored", value.c_str());
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  if (!report_path_.empty()) obs::EnableSpanRollups();
  // Run-wide telemetry threads/counters start here — before the lazy
  // worker pool exists, so perf's inherit=1 covers every worker.
  obs::StartRunPerfCounters();
  obs::StartExporterFromEnv(name_);
  InstallCrashHooks(this);
}

int BenchTelemetry::Finish(int exit_code) {
  if (finished_) return exit_code;
  finished_ = true;
  // After a completed Finish the crash hooks must not touch this object
  // again: it lives on RunBench's stack, which is gone by atexit time.
  // (On the std::exit / signal paths the stack is never unwound, so the
  // pointer is still valid when the hooks fire.)
  g_active_telemetry = nullptr;
  // Stop the exporter before rendering the report so its final record is
  // on disk and its sampling cannot race the snapshot. On a fatal-signal
  // path joining the exporter thread could deadlock (it may be mid-write
  // or the signal may have landed on it), so abort without joining there —
  // the time-series file stays valid because records are whole lines.
  if (obs::RunExitCause().starts_with("signal:")) {
    obs::AbortGlobalExporter();
  } else {
    obs::StopGlobalExporter();
  }
  if (!report_path_.empty()) {
    obs::RunInfo info;
    info.name = name_;
    info.threads = DefaultThreadCount();
    info.wall_seconds = watch_.ElapsedSeconds();
    info.exit_code = exit_code;
    if (obs::AppendRunReport(report_path_, info)) {
      LogInfo("run report appended to %s", report_path_.c_str());
    } else {
      LogWarning("could not append run report to %s", report_path_.c_str());
    }
  }
  obs::FlushTrace();
  return exit_code;
}

int RunBench(int argc, char** argv, const char* name, int (*run)()) {
  BenchTelemetry telemetry(name, &argc, argv);
  return telemetry.Finish(run());
}

ExperimentContext MakeContext() {
  ExperimentOptions options;
  const char* cache_dir = std::getenv("KGC_CACHE_DIR");
  options.cache_dir = cache_dir != nullptr ? cache_dir : "kgc_cache";
  const char* epoch_scale = std::getenv("KGC_EPOCH_SCALE");
  if (epoch_scale != nullptr) {
    options.epoch_scale = std::atof(epoch_scale);
  }
  return ExperimentContext(std::move(options));
}

std::unique_ptr<RulePredictor> BuildAmie(const Dataset& dataset) {
  const AmieOptions options;
  std::vector<Rule> rules = MineRules(dataset.train_store(), options);
  return std::make_unique<RulePredictor>(std::move(rules),
                                         dataset.train_store(), options);
}

const std::vector<TripleRanks>& AmieRanks(ExperimentContext& context,
                                          const Dataset& dataset) {
  const auto amie = BuildAmie(dataset);
  return context.GetPredictorRanks(dataset, *amie, "amie");
}

std::unique_ptr<SimpleRuleModel> BuildSimpleModel(const Dataset& dataset) {
  // Rules come from full-dataset pair statistics (the paper's simple model,
  // §4.2.1); predictions read the training adjacency only.
  DetectorOptions options;
  const RedundancyCatalog catalog =
      RedundancyCatalog::Detect(dataset.all_store(), options);
  return std::make_unique<SimpleRuleModel>(dataset.train_store(), catalog);
}

std::string Mr(double value) { return FormatDouble(value, 1); }
std::string Pct(double fraction) { return FormatDouble(fraction * 100.0, 1); }
std::string Mrr(double value) { return FormatDouble(value, 3); }

std::vector<std::string> RawAndFilteredRow(const std::string& label,
                                           const LinkPredictionMetrics& m) {
  return {label,        Mr(m.mr),      Pct(m.hits10),  Mrr(m.mrr),
          Mr(m.fmr),    Pct(m.fhits10), Mrr(m.fmrr)};
}

bool ConsumeValueFlag(int* argc, char** argv, const char* name,
                      std::string* value) {
  bool found = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string v;
    if (MatchValueFlag(argv, *argc, &i, name, &v)) {
      *value = v;
      found = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  return found;
}

bool ConsumeBoolFlag(int* argc, char** argv, const char* name) {
  bool found = false;
  int kept = 1;
  const std::string bare = name;
  const std::string prefix = bare + "=";
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == bare) {
      found = true;
    } else if (arg.starts_with(prefix)) {
      const std::string v = arg.substr(prefix.size());
      found = (v == "true" || v == "1");
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  return found;
}

std::vector<TopKQuery> MakeTopKBenchQueries(int32_t num_entities,
                                            int32_t num_relations,
                                            size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<TopKQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    TopKQuery q;
    q.tails = (i % 2) == 0;
    q.relation =
        static_cast<RelationId>(rng.Uniform(static_cast<uint64_t>(num_relations)));
    q.anchor =
        static_cast<EntityId>(rng.Uniform(static_cast<uint64_t>(num_entities)));
    q.watch = {
        static_cast<EntityId>(rng.Uniform(static_cast<uint64_t>(num_entities)))};
    queries.push_back(std::move(q));
  }
  return queries;
}

namespace {

void NaiveRank(std::span<const float> scores, EntityId true_entity,
               std::span<const EntityId> known, double* raw,
               double* filtered) {
  const float s_true = scores[static_cast<size_t>(true_entity)];
  double greater = 0.0;
  double equal = -1.0;  // the true entity ties with itself
  for (float s : scores) {
    greater += s > s_true ? 1.0 : 0.0;
    equal += s == s_true ? 1.0 : 0.0;
  }
  double greater_known = 0.0;
  double equal_known = 0.0;
  for (EntityId e : known) {
    if (e == true_entity) continue;
    const float s = scores[static_cast<size_t>(e)];
    greater_known += s > s_true ? 1.0 : 0.0;
    equal_known += s == s_true ? 1.0 : 0.0;
  }
  *raw = greater + equal / 2.0 + 1.0;
  *filtered = (greater - greater_known) + (equal - equal_known) / 2.0 + 1.0;
}

}  // namespace

std::vector<TripleRanks> NaiveRankTriples(const LinkPredictor& predictor,
                                          const TripleStore& filter,
                                          const TripleList& test) {
  std::vector<float> scores(static_cast<size_t>(predictor.num_entities()));
  std::vector<TripleRanks> ranks(test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    const Triple& t = test[i];
    ranks[i].triple = t;
    predictor.ScoreTails(t.head, t.relation, scores);
    NaiveRank(scores, t.tail, filter.Tails(t.head, t.relation),
              &ranks[i].tail_raw, &ranks[i].tail_filtered);
    predictor.ScoreHeads(t.relation, t.tail, scores);
    NaiveRank(scores, t.head, filter.Heads(t.relation, t.tail),
              &ranks[i].head_raw, &ranks[i].head_filtered);
  }
  return ranks;
}

std::vector<Rule> NaiveMineRules(const TripleStore& train,
                                 const AmieOptions& options) {
  using Pair = std::pair<EntityId, EntityId>;
  const size_t num_relations = static_cast<size_t>(train.num_relations());
  const size_t num_entities = static_cast<size_t>(train.num_entities());
  std::map<std::tuple<EntityId, RelationId, EntityId>, size_t> multiplicity;
  std::vector<std::set<Pair>> pairs(num_relations);
  std::vector<std::set<EntityId>> subjects(num_relations);
  std::vector<size_t> relation_size(num_relations, 0);
  std::vector<uint64_t> in_degree(num_entities, 0);
  std::vector<std::vector<std::pair<RelationId, EntityId>>> out_edges(
      num_entities);
  for (const Triple& t : train.triples()) {
    const size_t r = static_cast<size_t>(t.relation);
    ++multiplicity[{t.head, t.relation, t.tail}];
    pairs[r].insert({t.head, t.tail});
    subjects[r].insert(t.head);
    ++relation_size[r];
    ++in_degree[static_cast<size_t>(t.tail)];
    out_edges[static_cast<size_t>(t.head)].push_back({t.relation, t.tail});
  }

  std::vector<bool> eligible(num_entities, false);
  uint64_t admitted = 0;
  for (size_t z = 0; z < num_entities; ++z) {
    const uint64_t combos = in_degree[z] * out_edges[z].size();
    if (combos == 0 || combos > 20'000 ||
        admitted > options.max_path_combinations) {
      continue;
    }
    eligible[z] = true;
    admitted += combos;
  }

  std::vector<Rule> rules;
  // `body` holds the rule's (x, y) instantiations in head-atom terms.
  auto evaluate = [&](RuleBodyKind kind, RelationId body1, RelationId body2,
                      const std::set<Pair>& body) {
    for (size_t h = 0; h < num_relations; ++h) {
      const RelationId head = static_cast<RelationId>(h);
      if (kind == RuleBodyKind::kSame && head == body1) continue;
      size_t support = 0;
      size_t pca_body = 0;
      for (const auto& [x, y] : body) {
        const auto it = multiplicity.find({x, head, y});
        if (it != multiplicity.end()) support += it->second;
        if (subjects[h].count(x) != 0) ++pca_body;
      }
      if (support == 0 || support < options.min_support) continue;
      Rule rule;
      rule.kind = kind;
      rule.body1 = body1;
      rule.body2 = body2;
      rule.head = head;
      rule.support = support;
      rule.body_size = body.size();
      rule.std_confidence = static_cast<double>(support) /
                            static_cast<double>(body.size());
      rule.pca_confidence = pca_body > 0 ? static_cast<double>(support) /
                                               static_cast<double>(pca_body)
                                         : 0.0;
      rule.head_coverage = static_cast<double>(support) /
                           static_cast<double>(relation_size[h]);
      const double confidence = options.use_pca_confidence
                                    ? rule.pca_confidence
                                    : rule.std_confidence;
      if (rule.head_coverage >= options.min_head_coverage &&
          confidence >= options.min_confidence) {
        rules.push_back(rule);
      }
    }
  };

  for (size_t r1 = 0; r1 < num_relations; ++r1) {
    const RelationId body1 = static_cast<RelationId>(r1);
    if (pairs[r1].size() >= options.min_support) {
      evaluate(RuleBodyKind::kSame, body1, -1, pairs[r1]);
      std::set<Pair> reversed;
      for (const auto& [a, b] : pairs[r1]) reversed.insert({b, a});
      evaluate(RuleBodyKind::kInverse, body1, -1, reversed);
    }
    for (size_t r2 = 0; r2 < num_relations; ++r2) {
      std::set<Pair> body;
      for (const auto& [x, z] : pairs[r1]) {
        if (!eligible[static_cast<size_t>(z)]) continue;
        for (const auto& [r, y] : out_edges[static_cast<size_t>(z)]) {
          if (static_cast<size_t>(r) == r2) body.insert({x, y});
        }
      }
      if (!body.empty()) {
        evaluate(RuleBodyKind::kPath, body1, static_cast<RelationId>(r2),
                 body);
      }
    }
  }

  std::sort(rules.begin(), rules.end(), [&](const Rule& a, const Rule& b) {
    const double ca =
        options.use_pca_confidence ? a.pca_confidence : a.std_confidence;
    const double cb =
        options.use_pca_confidence ? b.pca_confidence : b.std_confidence;
    if (ca != cb) return ca > cb;
    if (a.support != b.support) return a.support > b.support;
    return std::tuple(static_cast<int>(a.kind), a.body1, a.body2, a.head) <
           std::tuple(static_cast<int>(b.kind), b.body1, b.body2, b.head);
  });
  return rules;
}

TopKBenchPoint MeasureTopKRetrieval(const LinkPredictor& predictor,
                                    const std::string& label,
                                    std::span<const TopKQuery> queries, int k,
                                    bool cross_check, int reps) {
  TopKBenchPoint point;
  point.label = label;
  point.num_entities = predictor.num_entities();
  point.num_queries = queries.size();
  point.k = k;

  TopKOptions options;
  options.k = k;
  options.threads = 1;  // oracle is serial; compare core-for-core
  const TopKEngine engine(predictor, options);

  if (cross_check) {
    // Aborts on any bit-level engine/oracle disagreement.
    const std::vector<TopKResult> results = engine.Run(queries, nullptr);
    for (size_t i = 0; i < queries.size(); ++i) {
      const TopKResult oracle =
          TopKEngine::OracleTopK(predictor, queries[i], k, nullptr);
      KGC_CHECK_EQ(results[i].raw.size(), oracle.raw.size());
      for (size_t j = 0; j < oracle.raw.size(); ++j) {
        KGC_CHECK_EQ(results[i].raw[j].entity, oracle.raw[j].entity);
        KGC_CHECK_EQ(std::bit_cast<uint32_t>(results[i].raw[j].score),
                     std::bit_cast<uint32_t>(oracle.raw[j].score));
      }
    }
    point.cross_checked = true;
  }

  // Counter deltas over exactly one engine run (counters are cumulative
  // per process and thread-count independent).
  auto& registry = obs::Registry::Get();
  obs::Counter& tiles = registry.GetCounter(obs::kTopKTilesPruned);
  obs::Counter& scored = registry.GetCounter(obs::kTopKEntitiesScored);
  obs::Counter& pushes = registry.GetCounter(obs::kTopKHeapPushes);
  obs::Counter& batched = registry.GetCounter(obs::kTopKQueriesBatched);
  const uint64_t tiles0 = tiles.value();
  const uint64_t scored0 = scored.value();
  const uint64_t pushes0 = pushes.value();
  const uint64_t batched0 = batched.value();
  engine.Run(queries, nullptr);
  point.tiles_pruned = tiles.value() - tiles0;
  point.entities_scored = scored.value() - scored0;
  point.heap_pushes = pushes.value() - pushes0;
  point.queries_batched = batched.value() - batched0;
  const double swept = static_cast<double>(point.num_queries) *
                       static_cast<double>(point.num_entities);
  point.scored_fraction =
      swept > 0 ? static_cast<double>(point.entities_scored) / swept : 0.0;

  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    engine.Run(queries, nullptr);
    const double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < point.engine_seconds) {
      point.engine_seconds = seconds;
    }
  }
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (const TopKQuery& query : queries) {
      TopKEngine::OracleTopK(predictor, query, k, nullptr);
    }
    const double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < point.oracle_seconds) {
      point.oracle_seconds = seconds;
    }
  }
  point.speedup = point.engine_seconds > 0
                      ? point.oracle_seconds / point.engine_seconds
                      : 0.0;
  return point;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Datasets are synthetic analogues (see DESIGN.md); compare the\n"
              "shape of the numbers with the paper, not absolute values.\n");
  std::printf("================================================================\n");
  std::fflush(stdout);
}

}  // namespace kgc::bench
