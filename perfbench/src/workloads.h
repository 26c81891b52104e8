// The benchmark's workloads. Each runs set-up, an untimed warm-up, a timed
// window of RunOptions::seconds, and its output checks, and fills in a
// RunResult: with tracing off the end-to-end metrics, with tracing on the
// per-layer metrics.
#ifndef KGC_PERFBENCH_WORKLOADS_H_
#define KGC_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "kg/link_predictor.h"

namespace perfbench {

/// The paper's pipeline: detect redundancy, clean, mine rules, train
/// TransE and DistMult on both splits, rank every predictor on both.
RunResult RunReeval(const RunOptions& options, const InputSeeds& seeds);

/// Prints the reeval reference record for one seed as a JSON member
/// ("<key>": {...}) to stdout. Returns the process exit code.
int EmitReevalReference(const RunOptions& options, const InputSeeds& seeds);

/// kgc_serve under a closed loop (serve_closed) or under open-loop
/// arrivals with generation rotation (serve_rotate).
RunResult RunServe(const RunOptions& options, const InputSeeds& seeds);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in report order. Every traced run prints all of
/// them; a layer a workload never reaches reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Puts `result`'s per-layer metrics in report order, adding every one the
/// workload did not measure with value 0.
void FillUnreachedLayers(RunResult& result);

/// util.vecmath_ns_per_row.{l2,dot}: the public l2_rows / dot_rows kernels
/// over each model's trained tail-sweep table (the workload's dim and
/// entity count).
void TimeVecmathKernels(const kgc::LinkPredictor& l2_model,
                        const kgc::LinkPredictor& dot_model,
                        RunResult& result);

}  // namespace perfbench

#endif  // KGC_PERFBENCH_WORKLOADS_H_
