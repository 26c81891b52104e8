#include "models/conve.h"

#include <cmath>

#include "util/vecmath.h"

namespace kgc {

ConvE::ConvE(int32_t num_entities, int32_t num_relations,
             const ModelHyperParams& params)
    : KgeModel(ModelType::kConvE, num_entities, num_relations, params),
      grid_h_(params.dim / kGridWidth),
      out_h_(2 * (params.dim / kGridWidth) - kKernel + 1),
      out_w_(kGridWidth - kKernel + 1),
      feat_size_(kFilters * out_h_ * out_w_),
      entities_(num_entities, params.dim),
      relations_(2 * num_relations, params.dim),
      kernels_(kFilters, kKernel * kKernel),
      conv_bias_(1, kFilters),
      fc_(feat_size_, params.dim),
      fc_bias_(1, params.dim),
      entity_bias_(num_entities, 1) {
  KGC_CHECK_EQ(params.dim % kGridWidth, 0);
  KGC_CHECK_GT(out_h_, 0);
  if (params.adagrad) {
    entities_.EnableAdaGrad();
    relations_.EnableAdaGrad();
    kernels_.EnableAdaGrad();
    conv_bias_.EnableAdaGrad();
    fc_.EnableAdaGrad();
    fc_bias_.EnableAdaGrad();
    entity_bias_.EnableAdaGrad();
  }
  Rng rng(params.seed);
  const double stddev = 1.0 / std::sqrt(static_cast<double>(params.dim));
  entities_.InitNormal(rng, stddev);
  relations_.InitNormal(rng, stddev);
  kernels_.InitNormal(rng, 0.2);
  fc_.InitNormal(rng, 1.0 / std::sqrt(static_cast<double>(feat_size_)));
  // Small positive conv bias keeps ReLU units alive early in training;
  // fc_bias_ and entity_bias_ start at zero.
  for (int32_t f = 0; f < kFilters; ++f) {
    conv_bias_.Row(0)[static_cast<size_t>(f)] = 0.05f;
  }
}

void ConvE::RunForward(EntityId e, int32_t relation_row, Forward& fwd) const {
  const int32_t dim = params_.dim;
  const int32_t in_h = 2 * grid_h_;
  const int32_t in_w = kGridWidth;
  fwd.input.resize(static_cast<size_t>(in_h * in_w));
  const auto ev = entities_.Row(e);
  const auto rv = relations_.Row(relation_row);
  for (int32_t j = 0; j < dim; ++j) {
    fwd.input[static_cast<size_t>(j)] = ev[static_cast<size_t>(j)];
    fwd.input[static_cast<size_t>(dim + j)] = rv[static_cast<size_t>(j)];
  }

  fwd.pre.resize(static_cast<size_t>(feat_size_));
  fwd.feat.resize(static_cast<size_t>(feat_size_));
  const auto cb = conv_bias_.Row(0);
  for (int32_t f = 0; f < kFilters; ++f) {
    const auto kernel = kernels_.Row(f);
    for (int32_t oy = 0; oy < out_h_; ++oy) {
      for (int32_t ox = 0; ox < out_w_; ++ox) {
        double sum = cb[static_cast<size_t>(f)];
        for (int32_t ky = 0; ky < kKernel; ++ky) {
          for (int32_t kx = 0; kx < kKernel; ++kx) {
            sum += static_cast<double>(
                       kernel[static_cast<size_t>(ky * kKernel + kx)]) *
                   fwd.input[static_cast<size_t>((oy + ky) * in_w + ox + kx)];
          }
        }
        const size_t idx =
            static_cast<size_t>((f * out_h_ + oy) * out_w_ + ox);
        fwd.pre[idx] = static_cast<float>(sum);
        fwd.feat[idx] = sum > 0 ? static_cast<float>(sum) : 0.0f;
      }
    }
  }

  fwd.z.resize(static_cast<size_t>(dim));
  fwd.v.resize(static_cast<size_t>(dim));
  const auto fb = fc_bias_.Row(0);
  for (int32_t d = 0; d < dim; ++d) {
    fwd.z[static_cast<size_t>(d)] = fb[static_cast<size_t>(d)];
  }
  for (int32_t i = 0; i < feat_size_; ++i) {
    const float fi = fwd.feat[static_cast<size_t>(i)];
    if (fi == 0.0f) continue;
    vec::Axpy(fi, fc_.Row(i).data(), fwd.z.data(), static_cast<size_t>(dim));
  }
  // The FC head stays linear: without batch-norm a second ReLU collapses
  // to dead units under SGD (documented deviation from the original).
  fwd.v = fwd.z;
}

double ConvE::Score(EntityId h, RelationId r, EntityId t) const {
  // The training score sums both reciprocal forms so that the gradient the
  // trainer derives from it is exactly what ApplyGradient applies (one Step
  // per form). Scoring only the forward form would leave the reciprocal
  // side without feedback and let it drift unboundedly through the shared
  // parameters.
  Forward fwd;
  const size_t dim = static_cast<size_t>(params_.dim);
  RunForward(h, r, fwd);
  float dot = 0.0f;
  const auto& ops = vec::Ops();
  ops.dot_rows(fwd.v.data(), entities_.Row(t).data(), 1, dim, dim, &dot);
  double score = static_cast<double>(dot) + entity_bias_.Row(t)[0];
  RunForward(t, num_relations_ + r, fwd);
  ops.dot_rows(fwd.v.data(), entities_.Row(h).data(), 1, dim, dim, &dot);
  score += static_cast<double>(dot) + entity_bias_.Row(h)[0];
  return score;
}

void ConvE::Step(EntityId e_in, int32_t relation_row, EntityId e_out, float g,
                 float lr) {
  Forward fwd;
  RunForward(e_in, relation_row, fwd);
  const int32_t dim = params_.dim;
  const auto out_v = entities_.Row(e_out);

  const float decay = static_cast<float>(params_.l2_reg);

  // dLoss/dz = dLoss/dv = g * e_out (linear FC head).
  std::vector<float> gz(static_cast<size_t>(dim));
  for (int32_t d = 0; d < dim; ++d) {
    const size_t k = static_cast<size_t>(d);
    gz[k] = g * out_v[k];
  }
  // Output entity & bias (weight-decayed: the dense stack otherwise drifts
  // without batch-norm).
  for (int32_t d = 0; d < dim; ++d) {
    const size_t k = static_cast<size_t>(d);
    entities_.Update(e_out, d, g * fwd.v[k] + decay * out_v[k], lr);
  }
  entity_bias_.Update(e_out, 0, g, lr);

  // FC layer: z = fc^T feat + b.
  std::vector<float> gfeat(static_cast<size_t>(feat_size_), 0.0f);
  for (int32_t i = 0; i < feat_size_; ++i) {
    const float fi = fwd.feat[static_cast<size_t>(i)];
    const auto w = fc_.Row(i);
    float acc = 0.0f;
    for (int32_t d = 0; d < dim; ++d) {
      const size_t k = static_cast<size_t>(d);
      acc += w[k] * gz[k];
      fc_.Update(i, d, fi * gz[k] + decay * w[k], lr);
    }
    gfeat[static_cast<size_t>(i)] = acc;
  }
  for (int32_t d = 0; d < dim; ++d) {
    fc_bias_.Update(0, d, gz[static_cast<size_t>(d)], lr);
  }

  // Conv layer.
  const int32_t in_h = 2 * grid_h_;
  const int32_t in_w = kGridWidth;
  std::vector<float> ginput(static_cast<size_t>(in_h * in_w), 0.0f);
  for (int32_t f = 0; f < kFilters; ++f) {
    const auto kernel = kernels_.Row(f);
    float gbias = 0.0f;
    for (int32_t oy = 0; oy < out_h_; ++oy) {
      for (int32_t ox = 0; ox < out_w_; ++ox) {
        const size_t idx =
            static_cast<size_t>((f * out_h_ + oy) * out_w_ + ox);
        if (fwd.pre[idx] <= 0) continue;
        const float gpre = gfeat[idx];
        if (gpre == 0.0f) continue;
        gbias += gpre;
        for (int32_t ky = 0; ky < kKernel; ++ky) {
          for (int32_t kx = 0; kx < kKernel; ++kx) {
            const size_t in_idx =
                static_cast<size_t>((oy + ky) * in_w + ox + kx);
            // Propagate through the pre-update kernel value, then step it.
            ginput[in_idx] += gpre * kernel[static_cast<size_t>(
                                          ky * kKernel + kx)];
            kernels_.Update(f, ky * kKernel + kx,
                            gpre * fwd.input[in_idx], lr);
          }
        }
      }
    }
    conv_bias_.Update(0, f, gbias, lr);
  }

  // Input grid gradients flow to the input entity (top half) and the
  // relation embedding (bottom half).
  for (int32_t j = 0; j < dim; ++j) {
    entities_.Update(e_in, j, ginput[static_cast<size_t>(j)], lr);
    relations_.Update(relation_row, j, ginput[static_cast<size_t>(dim + j)],
                      lr);
  }
}

void ConvE::ApplyGradient(const Triple& triple, float d_loss_d_score,
                          float lr) {
  // Reciprocal training: each example trains both directions.
  Step(triple.head, triple.relation, triple.tail, d_loss_d_score, lr);
  Step(triple.tail, num_relations_ + triple.relation, triple.head,
       d_loss_d_score, lr);
}

bool ConvE::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  (void)r;
  spec->kind = SweepKind::kDot;
  spec->rows = entities_.raw();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = static_cast<size_t>(params_.dim);
  spec->dim = spec->stride;
  spec->query_len = spec->stride;
  spec->bias = entity_bias_.raw();
  return true;
}

void ConvE::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                            std::span<float> q) const {
  Forward fwd;
  RunForward(anchor, tails ? r : num_relations_ + r, fwd);
  for (size_t j = 0; j < fwd.v.size(); ++j) q[j] = fwd.v[j];
}

void ConvE::Serialize(BinaryWriter& writer) const {
  entities_.Serialize(writer);
  relations_.Serialize(writer);
  kernels_.Serialize(writer);
  conv_bias_.Serialize(writer);
  fc_.Serialize(writer);
  fc_bias_.Serialize(writer);
  entity_bias_.Serialize(writer);
}

Status ConvE::Deserialize(BinaryReader& reader) {
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relations_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(kernels_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(conv_bias_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(fc_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(fc_bias_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(entity_bias_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
