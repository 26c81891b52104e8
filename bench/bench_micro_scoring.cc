// Micro-benchmarks (google-benchmark): scoring-function and ranking
// throughput per model, plus triple-store lookup costs. These are the
// throughput primitives the whole harness is built on.
//
// After the google-benchmark suite, four sections write machine-readable
// JSON to BENCH_scoring.json in the working directory:
//   - kernel_paths:      per-model tails sweeps under the generic vs
//                        the -march native kernel dispatch path;
//   - blocked_rank:      the blocked RankTriples sweep on TransE at
//                        scale:10000, µs per ranked triple at 1 / 4
//                        threads under each kernel path, checked against
//                        the brute-force rank oracle;
//   - exporter_overhead: the tails sweep with the live metrics
//                        exporter off vs running at 100 ms;
//   - topk:              the TopKEngine fast path vs the full-sweep oracle
//                        at 100k entities (a unit-norm TransE row and a
//                        dot-product DistMult row).
//
// Flags: the telemetry flags (--report/--trace/--log-level) and --topk
// (run only the topk post-suite section) accept both --flag=value and
// --flag value spellings and are stripped from argv before
// benchmark::Initialize, so they compose with --benchmark_filter and the
// rest of google-benchmark's flags in any order.

#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>
#include <utility>

#include "bench/bench_common.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "eval/ranker.h"
#include "models/model.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/resource_stats.h"
#include "util/parallel.h"
#include "util/vecmath.h"

namespace kgc {
namespace {

const SyntheticKg& SharedKg() {
  static const SyntheticKg* kg = new SyntheticKg(GenerateTiny(11));
  return *kg;
}

std::unique_ptr<KgeModel> MakeModel(ModelType type) {
  const SyntheticKg& kg = SharedKg();
  return CreateModel(type, kg.dataset.num_entities(),
                     kg.dataset.num_relations(), DefaultHyperParams(type));
}

void BM_Score(benchmark::State& state) {
  const auto type = static_cast<ModelType>(state.range(0));
  const auto model = MakeModel(type);
  EntityId h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Score(h, 1, (h + 7) % 100));
    h = (h + 1) % 100;
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_Score)->DenseRange(0, 9, 1);

void BM_ScoreTails(benchmark::State& state) {
  const auto type = static_cast<ModelType>(state.range(0));
  const auto model = MakeModel(type);
  std::vector<float> scores(static_cast<size_t>(model->num_entities()));
  EntityId h = 0;
  for (auto _ : state) {
    model->ScoreCandidates(/*tails=*/true, 1, h, scores);
    benchmark::DoNotOptimize(scores.data());
    h = (h + 1) % 100;
  }
  state.SetItemsProcessed(state.iterations() * model->num_entities());
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_ScoreTails)->DenseRange(0, 9, 1);

void BM_ApplyGradient(benchmark::State& state) {
  const auto type = static_cast<ModelType>(state.range(0));
  const auto model = MakeModel(type);
  EntityId h = 0;
  for (auto _ : state) {
    model->ApplyGradient(Triple{h, 1, (h + 7) % 100}, -0.5f, 0.01f);
    h = (h + 1) % 100;
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_ApplyGradient)->DenseRange(0, 9, 1);

void BM_TripleStoreContains(benchmark::State& state) {
  const TripleStore& store = SharedKg().dataset.train_store();
  const TripleList& triples = SharedKg().dataset.train();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Contains(triples[i % triples.size()]));
    ++i;
  }
}
BENCHMARK(BM_TripleStoreContains);

void BM_TripleStoreTails(benchmark::State& state) {
  const TripleStore& store = SharedKg().dataset.train_store();
  const TripleList& triples = SharedKg().dataset.train();
  size_t i = 0;
  for (auto _ : state) {
    const Triple& t = triples[i % triples.size()];
    benchmark::DoNotOptimize(store.Tails(t.head, t.relation).size());
    ++i;
  }
}
BENCHMARK(BM_TripleStoreTails);

void BM_RankOneTriple(benchmark::State& state) {
  const auto type = static_cast<ModelType>(state.range(0));
  const SyntheticKg& kg = SharedKg();
  const auto model = MakeModel(type);
  TripleList one = {kg.dataset.test().front()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(RankTriples(*model, kg.dataset, one));
  }
  state.SetLabel(ModelTypeName(type));
}
BENCHMARK(BM_RankOneTriple)->Arg(0)->Arg(6)->Arg(8)->Arg(9);

// --- Kernel dispatch paths -------------------------------------------------

/// Best-of-3 time of `reps` full tails sweeps under the active kernel
/// path, in nanoseconds per scored entity.
double MeasureSweepNsPerEntity(const KgeModel& model, int reps) {
  std::vector<float> scores(static_cast<size_t>(model.num_entities()));
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      model.ScoreCandidates(/*tails=*/true, 1, static_cast<EntityId>(i % 100),
                            scores);
      benchmark::DoNotOptimize(scores.data());
    }
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best / (static_cast<double>(reps) *
                 static_cast<double>(model.num_entities()));
}

/// Times every model's tails sweep under the generic and (when
/// available) the -march native kernel path and writes the kernel_paths
/// JSON section. The path active on entry is restored afterwards.
void RunKernelPaths(std::ostream& out) {
  const bool native = vec::NativeKernelsAvailable();
  const vec::KernelPath saved_path = vec::ActiveKernelPath();
  out << "  \"kernel_paths\": {\n"
      << "    \"native_available\": " << (native ? "true" : "false") << ",\n"
      << "    \"models\": [\n";
  std::printf("\nkernel paths (ScoreTails ns/entity, native %s)\n",
              native ? "available" : "unavailable");
  const int reps = 50;
  for (int m = 0; m <= 9; ++m) {
    const auto type = static_cast<ModelType>(m);
    const auto model = MakeModel(type);
    vec::SetKernelPathForTest(vec::KernelPath::kGeneric);
    MeasureSweepNsPerEntity(*model, 5);  // warm caches before timing
    const double generic_ns = MeasureSweepNsPerEntity(*model, reps);
    double native_ns = 0.0;
    if (native) {
      vec::SetKernelPathForTest(vec::KernelPath::kNative);
      MeasureSweepNsPerEntity(*model, 5);
      native_ns = MeasureSweepNsPerEntity(*model, reps);
    }
    vec::SetKernelPathForTest(saved_path);
    out << "      {\"model\": \"" << ModelTypeName(type)
        << "\", \"generic_ns_per_entity\": " << generic_ns;
    if (native) {
      out << ", \"native_ns_per_entity\": " << native_ns
          << ", \"native_speedup\": " << generic_ns / native_ns;
    }
    out << "}" << (m < 9 ? "," : "") << "\n";
    if (native) {
      std::printf("  %-10s generic %8.2f  native %8.2f  (%.2fx)\n",
                  ModelTypeName(type), generic_ns, native_ns,
                  generic_ns / native_ns);
    } else {
      std::printf("  %-10s generic %8.2f\n", ModelTypeName(type), generic_ns);
    }
  }
  out << "    ]\n  }";
}

// --- Blocked ranking -------------------------------------------------------

/// Times the blocked RankTriples sweep on TransE at scale:10000 (untrained,
/// default dim) at 1 and 4 threads under each compiled kernel path, checks
/// every run against the brute-force rank oracle bit for bit, and writes
/// the blocked_rank JSON section. Returns non-zero on any mismatch.
int RunBlockedRank(std::ostream& out) {
  const Dataset dataset =
      GenerateKg(ScaleSpec(10000), kDefaultDataSeed).dataset;
  const auto model = CreateModel(ModelType::kTransE, dataset.num_entities(),
                                 dataset.num_relations(),
                                 DefaultHyperParams(ModelType::kTransE));
  const TripleList& test = dataset.test();
  const auto oracle =
      bench::NaiveRankTriples(*model, dataset.all_store(), test);

  struct RankPoint {
    const char* kernel;
    int threads;
    double us_per_triple;
  };
  std::vector<RankPoint> points;
  bool bit_identical = true;
  const vec::KernelPath saved_path = vec::ActiveKernelPath();
  const std::vector<vec::KernelPath> paths =
      vec::NativeKernelsAvailable()
          ? std::vector<vec::KernelPath>{vec::KernelPath::kGeneric,
                                         vec::KernelPath::kNative}
          : std::vector<vec::KernelPath>{vec::KernelPath::kGeneric};
  for (vec::KernelPath path : paths) {
    vec::SetKernelPathForTest(path);
    for (int threads : {1, 4}) {
      RankerOptions options;
      options.threads = threads;
      double best = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const auto ranks = RankTriples(*model, dataset, test, options);
        const std::chrono::duration<double, std::micro> elapsed =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
        for (size_t i = 0; i < ranks.size(); ++i) {
          if (ranks[i].head_raw != oracle[i].head_raw ||
              ranks[i].head_filtered != oracle[i].head_filtered ||
              ranks[i].tail_raw != oracle[i].tail_raw ||
              ranks[i].tail_filtered != oracle[i].tail_filtered) {
            bit_identical = false;
          }
        }
      }
      points.push_back({vec::OpsFor(path).name, threads,
                        best / static_cast<double>(test.size())});
    }
  }
  vec::SetKernelPathForTest(saved_path);

  out << "  \"blocked_rank\": {\n"
      << "    \"model\": \"" << ModelTypeName(ModelType::kTransE) << "\",\n"
      << "    \"dataset\": \"scale:10000\",\n"
      << "    \"num_entities\": " << dataset.num_entities() << ",\n"
      << "    \"num_test_triples\": " << test.size() << ",\n"
      << "    \"bit_identical_vs_oracle\": "
      << (bit_identical ? "true" : "false") << ",\n"
      << "    \"results\": [\n";
  std::printf("\nblocked ranking (RankTriples, TransE, scale:10000, %zu test "
              "triples)\n",
              test.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const RankPoint& p = points[i];
    out << "      {\"kernel\": \"" << p.kernel << "\", \"threads\": "
        << p.threads << ", \"us_per_triple\": " << p.us_per_triple << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
    std::printf("  kernel=%-7s threads=%d  %.1f us/triple\n", p.kernel,
                p.threads, p.us_per_triple);
  }
  out << "    ]\n  }";
  if (!bit_identical) {
    std::fprintf(stderr, "ERROR: blocked ranks differ from the oracle\n");
    return 1;
  }
  return 0;
}

// --- Exporter overhead -----------------------------------------------------

struct SweepWindow {
  double process_cpu_seconds = 0.0;  ///< all threads, user+sys
  double thread_cpu_seconds = 0.0;   ///< the measuring thread alone
  double wall_ns_per_entity = 0.0;
  int64_t sweeps = 0;
};

double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runs `sweeps` full tails sweeps and measures both the process CPU
/// (every thread, via getrusage) and this thread's CPU for the window.
/// With only the measuring thread and (optionally) the exporter thread
/// alive, process minus thread CPU is *exactly* the exporter's cost: the
/// sweep's own run-to-run variance appears identically in both clocks and
/// cancels, and CPU burned by unrelated processes on a loaded machine is
/// charged to neither.
SweepWindow MeasureSweepWindow(const KgeModel& model, int64_t sweeps) {
  std::vector<float> scores(static_cast<size_t>(model.num_entities()));
  const obs::ResourceUsage before = obs::SampleProcessResources();
  const double thread_before = ThreadCpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < sweeps; ++i) {
    model.ScoreCandidates(/*tails=*/true, 1, static_cast<EntityId>(i % 100),
                          scores);
    benchmark::DoNotOptimize(scores.data());
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const double thread_after = ThreadCpuSeconds();
  const obs::ResourceUsage after = obs::SampleProcessResources();
  SweepWindow window;
  window.process_cpu_seconds =
      (after.cpu_user_seconds + after.cpu_sys_seconds) -
      (before.cpu_user_seconds + before.cpu_sys_seconds);
  window.thread_cpu_seconds = thread_after - thread_before;
  window.wall_ns_per_entity =
      elapsed.count() / (static_cast<double>(sweeps) *
                         static_cast<double>(model.num_entities()));
  window.sweeps = sweeps;
  return window;
}

/// Times the DistMult tails sweep with the metrics exporter off and
/// then running at a 100 ms interval, and writes the exporter_overhead
/// JSON section. The overhead is attributed directly: per on-window,
/// exporter CPU = process CPU - measuring-thread CPU (the only other
/// thread alive is the exporter's), and overhead% = exporter CPU /
/// thread CPU. The same difference over the off-windows (~0) is
/// subtracted as a baseline for accounting skew. Unlike comparing wall
/// or even process CPU between off and on windows — which differences
/// two large numbers whose cache- and scheduler-induced variance dwarfs
/// the exporter's cost on a busy single-core box — each round here
/// measures the exporter's ticks exactly. The budget is <= 1% overhead.
void RunExporterOverhead(std::ostream& out) {
  const auto model = MakeModel(ModelType::kDistMult);
  const bool already_running = obs::ExporterRunning();
  const int rounds = 5;

  obs::ExporterOptions options;
  options.run_name = "bench_micro_scoring.overhead";
  options.interval_ms = 100;
  options.timeseries_path = "kgc_timeseries_overhead.jsonl";
  options.exposition_path = "kgc_metrics_overhead.prom";

  // Calibrate the per-window sweep count to ~500 ms of work, so each
  // window spans several exporter ticks; then warm the caches.
  const SweepWindow probe = MeasureSweepWindow(*model, 200);
  const double sweep_ns = probe.wall_ns_per_entity *
                          static_cast<double>(model->num_entities());
  const int64_t sweeps_per_window =
      std::max<int64_t>(200, static_cast<int64_t>(0.5e9 / sweep_ns));

  double off_ns = std::numeric_limits<double>::infinity();
  double on_ns = std::numeric_limits<double>::infinity();
  std::vector<double> on_pcts;   // exporter CPU share per on-window, %
  std::vector<double> off_pcts;  // same difference with exporter off, ~0
  uint64_t records = 0;
  if (already_running) {
    on_ns = MeasureSweepWindow(*model, sweeps_per_window).wall_ns_per_entity;
  } else {
    for (int round = 0; round < rounds; ++round) {
      const SweepWindow off = MeasureSweepWindow(*model, sweeps_per_window);
      obs::StartExporter(options);
      const uint64_t before = obs::ExporterRecordsWritten();
      const SweepWindow on = MeasureSweepWindow(*model, sweeps_per_window);
      records += obs::ExporterRecordsWritten() - before;
      obs::StopGlobalExporter();
      off_ns = std::min(off_ns, off.wall_ns_per_entity);
      on_ns = std::min(on_ns, on.wall_ns_per_entity);
      if (on.thread_cpu_seconds > 0.0 && off.thread_cpu_seconds > 0.0) {
        on_pcts.push_back(
            (on.process_cpu_seconds - on.thread_cpu_seconds) /
            on.thread_cpu_seconds * 100.0);
        off_pcts.push_back(
            (off.process_cpu_seconds - off.thread_cpu_seconds) /
            off.thread_cpu_seconds * 100.0);
      }
    }
    std::sort(on_pcts.begin(), on_pcts.end());
    std::sort(off_pcts.begin(), off_pcts.end());
  }

  out << "  \"exporter_overhead\": {\n"
      << "    \"model\": \"" << ModelTypeName(ModelType::kDistMult) << "\",\n"
      << "    \"interval_ms\": 100,\n";
  if (already_running) {
    // An env-started exporter covers the whole process; there is no
    // exporter-off baseline to compare against in this configuration.
    out << "    \"exporter_already_running\": true,\n"
        << "    \"exporter_on_ns_per_entity\": " << on_ns << "\n  }";
    std::printf("\nexporter overhead: skipped baseline (exporter already "
                "running via KGC_METRICS_INTERVAL_MS)\n");
    return;
  }
  const double overhead_pct =
      on_pcts.empty()
          ? 0.0
          : on_pcts[on_pcts.size() / 2] - off_pcts[off_pcts.size() / 2];
  out << "    \"exporter_off_ns_per_entity\": " << off_ns << ",\n"
      << "    \"exporter_on_ns_per_entity\": " << on_ns << ",\n"
      << "    \"overhead_percent\": " << overhead_pct << ",\n"
      << "    \"records_written_during_measurement\": " << records
      << "\n  }";
  std::printf("\nexporter overhead (ScoreTails ns/entity, 100 ms interval)\n"
              "  off %.2f  on %.2f  overhead %.2f%%  (%llu records)\n",
              off_ns, on_ns, overhead_pct,
              static_cast<unsigned long long>(records));
}

// --- Top-K retrieval -------------------------------------------------------

/// Times the TopKEngine fast path against the per-query full-sweep oracle
/// at 100k entities and writes the topk JSON section. Two workloads:
///   - transe_unit_norm: a fresh TransE table, whose entities the model
///     projects to the unit sphere — an L2 distance sweep;
///   - distmult_dot: a dot-product sweep.
/// Each row first runs an oracle cross-check (aborts on a bit-level
/// mismatch).
int RunTopKRetrieval(std::ostream& out) {
  constexpr int32_t kEntities = 100000;
  constexpr size_t kDim = 64;
  constexpr int32_t kRelations = 8;
  constexpr size_t kQueries = 128;
  constexpr int kReps = 3;

  const std::vector<TopKQuery> queries =
      bench::MakeTopKBenchQueries(kEntities, kRelations, kQueries, 17);
  std::vector<bench::TopKBenchPoint> points;
  for (const auto& [type, label] :
       {std::pair{ModelType::kTransE, "transe_unit_norm"},
        std::pair{ModelType::kDistMult, "distmult_dot"}}) {
    ModelHyperParams params = DefaultHyperParams(type);
    params.dim = kDim;
    const auto model = CreateModel(type, kEntities, kRelations, params);
    points.push_back(bench::MeasureTopKRetrieval(
        *model, label, queries, 10, /*cross_check=*/true, kReps));
  }

  out << "  \"topk\": {\n"
      << "    \"num_entities\": " << kEntities << ",\n"
      << "    \"dim\": " << kDim << ",\n"
      << "    \"num_queries\": " << kQueries << ",\n"
      << "    \"results\": [\n";
  std::printf("\ntop-K retrieval (engine threads=1 vs full-sweep oracle, "
              "%d entities, dim %zu, %zu queries)\n",
              kEntities, kDim, kQueries);
  for (size_t i = 0; i < points.size(); ++i) {
    const bench::TopKBenchPoint& p = points[i];
    out << "      {\"workload\": \"" << p.label << "\", \"k\": " << p.k
        << ", \"cross_checked\": " << (p.cross_checked ? "true" : "false")
        << ", \"oracle_seconds\": " << p.oracle_seconds
        << ", \"engine_seconds\": " << p.engine_seconds
        << ", \"speedup\": " << p.speedup
        << ", \"tiles_pruned\": " << p.tiles_pruned
        << ", \"entities_scored\": " << p.entities_scored
        << ", \"scored_fraction\": " << p.scored_fraction
        << ", \"heap_pushes\": " << p.heap_pushes
        << ", \"queries_batched\": " << p.queries_batched << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
    std::printf("  %-16s K=%-3d  oracle %.3fs  engine %.3fs  %6.2fx  "
                "scored %5.1f%%%s\n",
                p.label.c_str(), p.k, p.oracle_seconds, p.engine_seconds,
                p.speedup, p.scored_fraction * 100.0,
                p.cross_checked ? "  [cross-checked]" : "");
  }
  out << "    ]\n  }";
  return 0;
}

/// Runs the post-suite sections and composes BENCH_scoring.json. With
/// --topk only the topk section is produced (and the JSON holds just that
/// section).
int RunPostSuiteSections(bool topk_only) {
  const SyntheticKg& kg = SharedKg();
  std::ofstream out("BENCH_scoring.json");
  if (!out) {
    std::fprintf(stderr, "cannot write BENCH_scoring.json\n");
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"micro_scoring\",\n"
      << "  \"dataset\": \"" << kg.dataset.name() << "\",\n"
      << "  \"num_test_triples\": " << kg.dataset.test().size() << ",\n"
      << "  \"num_entities\": " << kg.dataset.num_entities() << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"default_threads\": " << DefaultThreadCount() << ",\n";
  int rc = 0;
  if (!topk_only) {
    RunKernelPaths(out);
    out << ",\n";
    rc |= RunBlockedRank(out);
    out << ",\n";
    RunExporterOverhead(out);
    out << ",\n";
  }
  rc |= RunTopKRetrieval(out);
  out << "\n}\n";
  std::printf("-> BENCH_scoring.json\n");
  return rc;
}

}  // namespace
}  // namespace kgc

int main(int argc, char** argv) {
  // Telemetry flags and --topk must come off argv before google-benchmark
  // sees them, or ReportUnrecognizedArguments rejects the invocation. Both
  // strippers accept the --flag=value and --flag value forms, so e.g.
  //   bench_micro_scoring --benchmark_filter=NONE --topk --report out.jsonl
  // works in any argument order.
  kgc::bench::BenchTelemetry telemetry("bench_micro_scoring", &argc, argv);
  const bool topk_only = kgc::bench::ConsumeBoolFlag(&argc, argv, "--topk");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return telemetry.Finish(1);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return telemetry.Finish(kgc::RunPostSuiteSections(topk_only));
}
