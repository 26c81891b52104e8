// The per-layer metric list and the measurements shared by workloads.
#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "kg/link_predictor.h"
#include "util/vecmath.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"datagen.generate_s", "s"},
      {"kg.index_s", "s"},
      {"kg.probe_hit_frac", "ratio"},
      {"redundancy.detect_s", "s"},
      {"redundancy.clean_s", "s"},
      {"redundancy.pairs_compared", "count"},
      {"rules.mine_s", "s"},
      {"rules.candidates", "count"},
      {"rules.rank_s", "s"},
      {"models.train_epoch_s.TransE", "s"},
      {"models.train_epoch_s.DistMult", "s"},
      {"models.examples_per_s", "1/s"},
      {"eval.rank_s.TransE.orig", "s"},
      {"eval.rank_s.TransE.clean", "s"},
      {"eval.rank_s.DistMult.orig", "s"},
      {"eval.rank_s.DistMult.clean", "s"},
      {"eval.rank_s.SimpleModel.orig", "s"},
      {"eval.rank_s.SimpleModel.clean", "s"},
      {"eval.rank_us_per_triple", "us"},
      {"eval.score_evals", "count"},
      {"eval.query_cache_hit_frac", "ratio"},
      {"eval.shard_imbalance", "ratio"},
      {"eval.topk_run_ms", "ms"},
      {"eval.topk_scored_per_query", "count"},
      {"eval.topk_pruned_frac", "ratio"},
      {"eval.classify_fit_ms", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.queue_depth_mean", "count"},
      {"serve.batch_ms_p50", "ms"},
      {"serve.request_ms_p50", "ms"},
      {"serve.client_overhead_ms_p50", "ms"},
      {"serve.client_codec_us_p50", "us"},
      {"serve.shed", "count"},
      {"serve.deadline_exceeded", "count"},
      {"snapshot.ingest_s", "s"},
      {"snapshot.publish_to_serve_ms", "ms"},
      {"snapshot.reader_swap_ms", "ms"},
      {"snapshot.rotations", "count"},
      {"util.vecmath_ns_per_row.l2", "ns"},
      {"util.vecmath_ns_per_row.dot", "ns"},
      {"obs.stage_coverage_frac", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return kMetrics;
}

void FillUnreachedLayers(RunResult& result) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : PerLayerMetrics()) {
    auto it = std::find_if(result.metrics.begin(), result.metrics.end(),
                           [&](const Metric& m) { return m.name == spec.name; });
    ordered.push_back(it != result.metrics.end()
                          ? *it
                          : Metric{spec.name, 0.0, spec.unit});
  }
  result.metrics = std::move(ordered);
}

namespace {

/// ns per row of one kernel over `predictor`'s tail-sweep table, timed over
/// enough repetitions to cover ~50 ms.
double NsPerRow(const kgc::LinkPredictor& predictor, bool l2) {
  kgc::SweepSpec spec;
  if (!predictor.DescribeSweep(/*tails=*/true, /*r=*/0, &spec) ||
      spec.num_rows == 0) {
    return 0.0;
  }
  // The kernels read `dim` floats of the query; a row of the table serves.
  std::vector<float> query(spec.rows, spec.rows + spec.dim);
  std::vector<float> out(spec.num_rows);
  const kgc::vec::KernelOps& ops = kgc::vec::Ops();
  const auto run = [&] {
    if (l2) {
      ops.l2_rows(query.data(), spec.rows, spec.num_rows, spec.stride,
                  spec.dim, out.data());
    } else {
      ops.dot_rows(query.data(), spec.rows, spec.num_rows, spec.stride,
                   spec.dim, out.data());
    }
  };
  run();  // warm the table into cache
  std::vector<double> per_row;
  for (int round = 0; round < 5; ++round) {
    int reps = 0;
    const double start = NowSeconds();
    double elapsed = 0.0;
    while (elapsed < 0.01) {
      run();
      ++reps;
      elapsed = NowSeconds() - start;
    }
    per_row.push_back(elapsed * 1e9 /
                      (static_cast<double>(reps) *
                       static_cast<double>(spec.num_rows)));
  }
  return Median(per_row);
}

}  // namespace

void TimeVecmathKernels(const kgc::LinkPredictor& l2_model,
                        const kgc::LinkPredictor& dot_model,
                        RunResult& result) {
  result.Add("util.vecmath_ns_per_row.l2", NsPerRow(l2_model, true), "ns");
  result.Add("util.vecmath_ns_per_row.dot", NsPerRow(dot_model, false), "ns");
}

}  // namespace perfbench
