// Relation prediction (paper §3.2; Shi & Weninger 2017): given (h, ?, t),
// rank the relations. A much smaller candidate space than link prediction
// (|R| instead of |E|), evaluated with the same rank-based measures.

#ifndef KGC_EVAL_RELATION_PREDICTION_H_
#define KGC_EVAL_RELATION_PREDICTION_H_

#include "eval/metrics.h"
#include "kg/dataset.h"
#include "models/model.h"

namespace kgc {

/// Ranks the true relation of every test triple among all relations, one
/// prediction per triple. The filtered ranks ignore other relations known
/// to link (h, t).
LinkPredictionMetrics EvaluateRelationPrediction(const KgeModel& model,
                                                 const Dataset& dataset);

}  // namespace kgc

#endif  // KGC_EVAL_RELATION_PREDICTION_H_
