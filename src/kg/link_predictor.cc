#include "kg/link_predictor.h"

#include "util/check.h"
#include "util/vecmath.h"

namespace kgc {

void SweepRows(const SweepSpec& spec, const float* q, size_t first,
               size_t count, float* out) {
  const auto& ops = vec::Ops();
  const float* rows = spec.rows + first * spec.stride;
  switch (spec.kind) {
    case SweepKind::kDot:
      ops.dot_rows(q, rows, count, spec.stride, spec.dim, out);
      break;
    case SweepKind::kL1:
      ops.l1_rows(q, rows, count, spec.stride, spec.dim, out);
      break;
    case SweepKind::kL2:
      ops.l2_rows(q, rows, count, spec.stride, spec.dim, out);
      break;
    case SweepKind::kL1Offset:
      ops.l1_offset_rows(q, spec.v, spec.coef + first, spec.coef_scale, rows,
                         count, spec.stride, spec.dim, out);
      break;
    case SweepKind::kL2Offset:
      ops.l2_offset_rows(q, spec.v, spec.coef + first, spec.coef_scale, rows,
                         count, spec.stride, spec.dim, out);
      break;
    case SweepKind::kCabs:
      ops.cabs_rows(q, rows, count, spec.stride, spec.dim, out);
      break;
    case SweepKind::kNone:
      break;
  }
  SweepEpilogue(spec, first, count, out);
}

void SweepBlock(const SweepSpec& spec, const float* qs, size_t q_stride,
                size_t num_q, size_t first, size_t count, float* out,
                size_t out_stride) {
  const auto& ops = vec::Ops();
  const float* rows = spec.rows + first * spec.stride;
  const float* coef = spec.coef != nullptr ? spec.coef + first : nullptr;
  switch (spec.kind) {
    case SweepKind::kDot:
      ops.dot_rows_block(qs, q_stride, num_q, rows, count, spec.stride,
                         spec.dim, out, out_stride);
      break;
    case SweepKind::kL1:
      ops.l1_rows_block(qs, q_stride, num_q, rows, count, spec.stride,
                        spec.dim, out, out_stride);
      break;
    case SweepKind::kL2:
      ops.l2_rows_block(qs, q_stride, num_q, rows, count, spec.stride,
                        spec.dim, out, out_stride);
      break;
    case SweepKind::kL1Offset:
      ops.l1_offset_rows_block(qs, q_stride, num_q, spec.v, coef,
                               spec.coef_scale, rows, count, spec.stride,
                               spec.dim, out, out_stride);
      break;
    case SweepKind::kL2Offset:
      ops.l2_offset_rows_block(qs, q_stride, num_q, spec.v, coef,
                               spec.coef_scale, rows, count, spec.stride,
                               spec.dim, out, out_stride);
      break;
    case SweepKind::kCabs:
      ops.cabs_rows_block(qs, q_stride, num_q, rows, count, spec.stride,
                          spec.dim, out, out_stride);
      break;
    case SweepKind::kNone:
      break;
  }
}

void SweepEpilogue(const SweepSpec& spec, size_t first, size_t count,
                   float* out) {
  if (spec.bias != nullptr) {
    for (size_t i = 0; i < count; ++i) out[i] += spec.bias[first + i];
  }
  if (spec.negate) {
    for (size_t i = 0; i < count; ++i) out[i] = -out[i];
  }
}

SweepExecutor::SweepExecutor(const LinkPredictor& predictor,
                             size_t tile_rows)
    : predictor_(predictor), tile_rows_(tile_rows) {
  KGC_CHECK_GT(tile_rows, 0u);
}

void SweepExecutor::Load(bool tails, RelationId r,
                         std::span<const EntityId> anchors) {
  KGC_CHECK(!anchors.empty() && anchors.size() <= kSweepQueryBlock);
  if (!described_ || tails != tails_ || r != relation_) {
    // coef/v may alias model scratch that BuildSweepQuery clobbers, so the
    // spec points at copies; rows/bias stay put until the next describe.
    described_ = true;
    tails_ = tails;
    relation_ = r;
    spec_ = SweepSpec{};
    kernel_ = predictor_.DescribeSweep(tails, r, &spec_) &&
              spec_.kind != SweepKind::kNone;
    num_rows_ = kernel_ ? spec_.num_rows
                        : static_cast<size_t>(predictor_.num_entities());
    if (spec_.coef != nullptr) {
      coef_.assign(spec_.coef, spec_.coef + spec_.num_rows);
      spec_.coef = coef_.data();
    }
    if (spec_.v != nullptr) {
      v_.assign(spec_.v, spec_.v + spec_.dim);
      spec_.v = v_.data();
    }
  }
  num_anchors_ = anchors.size();
  if (kernel_) {
    const size_t qlen = spec_.query_len;
    queries_.resize(num_anchors_ * qlen);
    for (size_t a = 0; a < num_anchors_; ++a) {
      predictor_.BuildSweepQuery(
          tails, r, anchors[a], std::span<float>(&queries_[a * qlen], qlen));
    }
    scores_.resize(kSweepQueryBlock * tile_rows_);
    return;
  }
  scores_.resize(num_anchors_ * num_rows_);
  for (size_t a = 0; a < num_anchors_; ++a) {
    predictor_.ScoreCandidates(
        tails, r, anchors[a],
        std::span<float>(&scores_[a * num_rows_], num_rows_));
  }
}

float SweepExecutor::Score(size_t a, EntityId e) const {
  const size_t row = static_cast<size_t>(e);
  if (!kernel_) return scores_[a * num_rows_ + row];
  float score;
  SweepRows(spec_, &queries_[a * spec_.query_len], row, 1, &score);
  return score;
}

const float* SweepExecutor::Tile(size_t first, size_t count) {
  if (!kernel_) return scores_.data() + first;
  float* out = scores_.data();
  SweepBlock(spec_, queries_.data(), spec_.query_len, num_anchors_, first,
             count, out, count);
  for (size_t a = 0; a < num_anchors_; ++a) {
    SweepEpilogue(spec_, first, count, out + a * count);
  }
  return out;
}

}  // namespace kgc
