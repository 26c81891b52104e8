#include "kg/link_predictor.h"

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

}  // namespace kgc
