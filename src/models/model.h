// KgeModel: the interface all knowledge-graph embedding models implement.
//
// A model scores triples (higher = more plausible) and knows how to apply an
// SGD step given the upstream loss gradient dLoss/dScore computed by the
// Trainer. Candidate scoring over all heads / tails is the
// performance-critical path of link-prediction evaluation. A model does not
// write it: it describes its sweep (DescribeSweep + BuildSweepQuery) and
// KgeModel executes that description through the same kernels and epilogue
// the top-K engine uses, so every model is ranked by one code path.
//
// Score(h, r, t) defaults to one row of the tails sweep, so it equals
// ScoreCandidates(true, r, h)[t] bit for bit. A model overrides it only
// where that row is too slow for the training hot path (TransH, TransD and
// TransR describe their sweep with a per-entity table) or is not the score
// the model trains (DistMult scores in double to keep head/tail symmetry;
// ConvE sums both reciprocal forms).

#ifndef KGC_MODELS_MODEL_H_
#define KGC_MODELS_MODEL_H_

#include <memory>
#include <span>
#include <string>

#include "kg/link_predictor.h"
#include "kg/triple.h"
#include "models/embedding.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace kgc {

/// Supported model families.
enum class ModelType {
  kTransE = 0,
  kTransH = 1,
  kTransR = 2,
  kTransD = 3,
  kRescal = 4,
  kDistMult = 5,
  kComplEx = 6,
  kRotatE = 7,
  kTuckER = 8,
  kConvE = 9,
};

/// Canonical display name, e.g. "TransE".
const char* ModelTypeName(ModelType type);

/// Parses a display name; returns kInvalidArgument on unknown names.
StatusOr<ModelType> ParseModelType(const std::string& name);

/// Loss used by the trainer for this model.
enum class LossKind {
  kMarginRanking = 0,  ///< max(0, margin - s(pos) + s(neg))
  kLogistic = 1,       ///< softplus(-y * s)
};

/// Model hyperparameters. Defaults are tuned for the scaled synthetic
/// datasets (~2k entities); see models/factory.cc for per-model overrides.
struct ModelHyperParams {
  int32_t dim = 32;
  /// Secondary dimension (relation dim for TuckER / TransR-style models).
  int32_t dim2 = 8;
  double learning_rate = 0.05;
  double margin = 1.0;
  LossKind loss = LossKind::kMarginRanking;
  /// L1 (true) or L2 distance for translational models.
  bool l1_distance = false;
  /// Initialization seed.
  uint64_t seed = 7;
  /// L2 regularization coefficient applied to touched rows (0 = off).
  double l2_reg = 0.0;
  /// Use AdaGrad-scaled updates (the logistic-loss models' reference
  /// implementations all use adaptive optimizers).
  bool adagrad = false;
};

/// Abstract embedding model.
class KgeModel : public LinkPredictor {
 public:
  KgeModel(ModelType type, int32_t num_entities, int32_t num_relations,
           ModelHyperParams params)
      : type_(type),
        num_entities_(num_entities),
        num_relations_(num_relations),
        params_(params) {}
  ~KgeModel() override = default;

  KgeModel(const KgeModel&) = delete;
  KgeModel& operator=(const KgeModel&) = delete;

  ModelType type() const { return type_; }
  const char* name() const override { return ModelTypeName(type_); }
  int32_t num_entities() const override { return num_entities_; }
  int32_t num_relations() const { return num_relations_; }
  const ModelHyperParams& params() const { return params_; }

  /// Plausibility score of (h, r, t); higher is more plausible. Defaults to
  /// row t of the tails sweep of (h, r); see the file comment for overrides.
  virtual double Score(EntityId h, RelationId r, EntityId t) const;

  /// Applies one SGD step for the triple: every parameter p touched by the
  /// score moves by -lr * d_loss_d_score * dScore/dp.
  virtual void ApplyGradient(const Triple& triple, float d_loss_d_score,
                             float lr) = 0;

  /// The one sweep executor: DescribeSweep, BuildSweepQuery into scratch
  /// slot 0, then SweepRows over every entity.
  void ScoreCandidates(bool tails, RelationId r, EntityId anchor,
                       std::span<float> out) const final;

  /// Every embedding model has a kernel-shaped sweep; ScoreCandidates and
  /// the default Score execute it. BuildSweepQuery must not use
  /// vec::GetScratch slot 0 (the executor's query buffer), and
  /// DescribeSweep's pointers must survive it.
  bool DescribeSweep(bool tails, RelationId r,
                     SweepSpec* spec) const override = 0;
  void BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                       std::span<float> q) const override = 0;

  /// Hook called by the trainer when an epoch begins (entity normalization
  /// for translational models happens here).
  virtual void OnEpochBegin(int epoch) { (void)epoch; }

  /// Serialization of all parameter tables (type tag handled by ModelStore).
  virtual void Serialize(BinaryWriter& writer) const = 0;
  virtual Status Deserialize(BinaryReader& reader) = 0;

 protected:
  ModelType type_;
  int32_t num_entities_;
  int32_t num_relations_;
  ModelHyperParams params_;
};

/// Creates a freshly initialized model of the given type.
std::unique_ptr<KgeModel> CreateModel(ModelType type, int32_t num_entities,
                                      int32_t num_relations,
                                      const ModelHyperParams& params);

/// Per-model default hyperparameters for the scaled synthetic benchmarks.
ModelHyperParams DefaultHyperParams(ModelType type);

/// All model types evaluated by the paper's main tables, in table order:
/// TransE, TransH, TransR, TransD, DistMult, ComplEx, ConvE, RotatE, TuckER.
/// RESCAL is intentionally excluded: the paper only revisits it in the
/// historical accuracy-evolution discussion, not in the main result tables.
std::span<const ModelType> PaperModelLineup();

/// The six models of the comparison figures (Fig. 1, 5, 6):
/// TransE, DistMult, ComplEx, ConvE, RotatE, TuckER. RESCAL is intentionally
/// excluded here too — the figures track the paper's figure lineup, which
/// drops it along with the remaining translational variants.
std::span<const ModelType> FigureModelLineup();

}  // namespace kgc

#endif  // KGC_MODELS_MODEL_H_
