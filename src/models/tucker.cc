#include "models/tucker.h"

#include <cmath>

#include "util/vecmath.h"

namespace kgc {

TuckER::TuckER(int32_t num_entities, int32_t num_relations,
               const ModelHyperParams& params)
    : KgeModel(ModelType::kTuckER, num_entities, num_relations, params),
      dim_e_(params.dim),
      dim_r_(params.dim2),
      entities_(num_entities, params.dim),
      relations_(num_relations, params.dim2),
      core_(1, params.dim * params.dim2 * params.dim) {
  KGC_CHECK_GT(dim_r_, 0);
  if (params.adagrad) {
    // The core tensor stays on plain SGD: its gradient step is applied with
    // direct array arithmetic in the throughput-critical inner loop.
    entities_.EnableAdaGrad();
    relations_.EnableAdaGrad();
  }
  Rng rng(params.seed);
  const double stddev_e = 1.0 / std::sqrt(static_cast<double>(dim_e_));
  const double stddev_r = 1.0 / std::sqrt(static_cast<double>(dim_r_));
  entities_.InitNormal(rng, stddev_e);
  relations_.InitNormal(rng, stddev_r);
  core_.InitNormal(rng, 0.5);
}

void TuckER::ContractHeadRelation(std::span<const float> h,
                                  std::span<const float> r,
                                  std::span<float> u) const {
  const auto w = core_.Row(0);
  const size_t de = static_cast<size_t>(dim_e_);
  for (size_t c = 0; c < de; ++c) u[c] = 0.0f;
  for (int32_t a = 0; a < dim_e_; ++a) {
    const float ha = h[static_cast<size_t>(a)];
    if (ha == 0.0f) continue;
    for (int32_t b = 0; b < dim_r_; ++b) {
      const float hr = ha * r[static_cast<size_t>(b)];
      vec::Axpy(hr, w.data() + CoreIndex(a, b, 0), u.data(), de);
    }
  }
}

void TuckER::ContractRelationTail(std::span<const float> r,
                                  std::span<const float> t,
                                  std::span<float> v) const {
  const auto w = core_.Row(0);
  const size_t de = static_cast<size_t>(dim_e_);
  const size_t dr = static_cast<size_t>(dim_r_);
  // For each a the b-rows of W are contiguous: one dot_rows sweep gives
  // inner_b = sum_c W_abc t_c, then v_a = r . inner.
  auto inner = vec::GetScratch(dr, 1);
  for (int32_t a = 0; a < dim_e_; ++a) {
    vec::Ops().dot_rows(t.data(), w.data() + CoreIndex(a, 0, 0), dr, de, de,
                        inner.data());
    v[static_cast<size_t>(a)] =
        static_cast<float>(vec::Dot(r.data(), inner.data(), dr));
  }
}

void TuckER::ApplyGradient(const Triple& triple, float d_loss_d_score,
                           float lr) {
  const auto hv = entities_.Row(triple.head);
  const auto rv = relations_.Row(triple.relation);
  const auto tv = entities_.Row(triple.tail);
  const float g = d_loss_d_score;
  const float decay = static_cast<float>(params_.l2_reg);
  const size_t de = static_cast<size_t>(dim_e_);
  const size_t dr = static_cast<size_t>(dim_r_);

  // Gradients need the original values; compute all contractions first.
  // One fused pass over W per direction keeps this the throughput-critical
  // inner loop of TuckER training tight:
  //   inner_ab = sum_c W_abc t_c   ->  v_a = sum_b r_b inner_ab,
  //                                    q_b = sum_a h_a inner_ab,
  // and the core gradient W_abc -= lr g h_a r_b t_c is applied with direct
  // array arithmetic (the core never uses AdaGrad).
  auto u = vec::GetScratch(de, 0);  // dScore/dt
  auto v = vec::GetScratch(de, 2);  // dScore/dh
  auto q = vec::GetScratch(dr, 3);  // dScore/dr
  ContractHeadRelation(hv, rv, u);
  {
    const auto w = core_.Row(0);
    auto inner = vec::GetScratch(dr, 4);
    for (size_t b = 0; b < dr; ++b) q[b] = 0.0f;
    for (int32_t a = 0; a < dim_e_; ++a) {
      const float ha = hv[static_cast<size_t>(a)];
      vec::Ops().dot_rows(tv.data(), w.data() + CoreIndex(a, 0, 0), dr, de,
                          de, inner.data());
      v[static_cast<size_t>(a)] =
          static_cast<float>(vec::Dot(rv.data(), inner.data(), dr));
      for (size_t b = 0; b < dr; ++b) {
        q[b] += static_cast<float>(ha * inner[b]);
      }
    }
  }

  // Core gradient: dScore/dW_abc = h_a r_b t_c.
  {
    float* w = core_.mutable_data().data();
    for (int32_t a = 0; a < dim_e_; ++a) {
      const float ha = hv[static_cast<size_t>(a)];
      if (ha == 0.0f) continue;
      for (int32_t b = 0; b < dim_r_; ++b) {
        const float scale = lr * g * ha * rv[static_cast<size_t>(b)];
        vec::Axpy(-scale, tv.data(), w + CoreIndex(a, b, 0), de);
      }
    }
  }
  auto ge = vec::GetScratch(de, 5);
  for (size_t a = 0; a < de; ++a) ge[a] = g * v[a] + decay * hv[a];
  entities_.UpdateRow(triple.head, ge, lr);
  // The tail gradient reads the (possibly just-updated) head row alias.
  for (size_t a = 0; a < de; ++a) ge[a] = g * u[a] + decay * tv[a];
  entities_.UpdateRow(triple.tail, ge, lr);
  auto gr = vec::GetScratch(dr, 4);
  for (size_t b = 0; b < dr; ++b) gr[b] = g * q[b] + decay * rv[b];
  relations_.UpdateRow(triple.relation, gr, lr);
}

bool TuckER::DescribeSweep(bool tails, RelationId r, SweepSpec* spec) const {
  (void)tails;
  (void)r;
  spec->kind = SweepKind::kDot;
  spec->rows = entities_.raw();
  spec->num_rows = static_cast<size_t>(num_entities_);
  spec->stride = static_cast<size_t>(dim_e_);
  spec->dim = spec->stride;
  spec->query_len = spec->stride;
  return true;
}

void TuckER::BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                             std::span<float> q) const {
  if (tails) {
    ContractHeadRelation(entities_.Row(anchor), relations_.Row(r), q);
  } else {
    // ContractRelationTail scratches slot 1 internally; q must not alias it.
    ContractRelationTail(relations_.Row(r), entities_.Row(anchor), q);
  }
}

void TuckER::Serialize(BinaryWriter& writer) const {
  writer.WriteI32(dim_e_);
  writer.WriteI32(dim_r_);
  entities_.Serialize(writer);
  relations_.Serialize(writer);
  core_.Serialize(writer);
}

Status TuckER::Deserialize(BinaryReader& reader) {
  auto de = reader.ReadI32();
  if (!de.ok()) return de.status();
  auto dr = reader.ReadI32();
  if (!dr.ok()) return dr.status();
  dim_e_ = *de;
  dim_r_ = *dr;
  KGC_RETURN_IF_ERROR(entities_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(relations_.Deserialize(reader));
  KGC_RETURN_IF_ERROR(core_.Deserialize(reader));
  return Status::Ok();
}

}  // namespace kgc
