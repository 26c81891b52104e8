// LinkPredictor: anything that can rank candidate entities for a query.
//
// Both latent-feature models (embeddings; models/) and observed-feature
// models (rules; rules/) implement this interface, so the evaluation
// harness treats them uniformly -- exactly the comparison the paper makes.
// A predictor writes one candidate scorer, ScoreCandidates(tails, r, anchor,
// out), for both query directions, in the argument order of DescribeSweep /
// BuildSweepQuery. Embedding models do not write it: KgeModel
// (models/model.h) executes their DescribeSweep description.
//
// SweepExecutor is the one blocked sweep over that interface. The ranker
// (eval/ranker.h) and the top-K engine (eval/topk.h) both hand it blocks of
// anchors and consume its score tiles, so every rank and every top-K list
// comes from the same scores.

#ifndef KGC_KG_LINK_PREDICTOR_H_
#define KGC_KG_LINK_PREDICTOR_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "kg/triple.h"

namespace kgc {

/// The per-(query, row) kernel shape a model's sweep reduces to. Embedding
/// models' ScoreCandidates and Score (SweepRows) and SweepExecutor
/// (SweepBlock) share the per-row reduction and SweepEpilogue, so they agree
/// bit for bit.
enum class SweepKind {
  kNone = 0,   // no kernel sweep; ScoreCandidates is the only scorer
  kDot,        // score = dot(q, row) (+ optional per-row bias)
  kL1,         // score = -sum_j |q_j - row_j|
  kL2,         // score = -||q - row||_2
  kL1Offset,   // score = -sum_j |q_j + coef_scale*coef_i*v_j - row_j|
  kL2Offset,   // L2 variant of kL1Offset
  kCabs,       // score = -complex-modulus distance (RotatE layout)
};

/// A model's description of one (direction, relation) sweep: how to score a
/// query vector against every candidate row with vecmath kernels. Pointers
/// alias model-owned (possibly thread-local) storage; they stay valid on the
/// calling thread until the model's next DescribeSweep/Score call, so the
/// caller must copy what it needs to keep (SweepExecutor copies `coef` and
/// `v` immediately and reads `rows` only until it describes again).
struct SweepSpec {
  SweepKind kind = SweepKind::kNone;
  const float* rows = nullptr;  // candidate table, row e = entity e
  size_t num_rows = 0;
  size_t stride = 0;            // floats between consecutive rows
  size_t dim = 0;               // floats reduced per row (half_dim for kCabs)
  size_t query_len = 0;         // floats BuildSweepQuery writes
  const float* v = nullptr;     // offset direction (offset kinds only)
  const float* coef = nullptr;  // per-row offset coefficients (offset kinds)
  float coef_scale = 0.0f;      // sign/scale applied to coef
  const float* bias = nullptr;  // per-row additive bias (kDot only), or null
  bool negate = false;          // true: score = -kernel(q, row) (distances)
};

/// Scores of query `q` against candidate rows [first, first + count) of
/// `spec`, written to out[0..count): the single-query *_rows kernel of
/// spec.kind, then SweepEpilogue. Each row reduces independently, so a
/// one-row call reproduces a full sweep's bits for that row.
void SweepRows(const SweepSpec& spec, const float* q, size_t first,
               size_t count, float* out);

/// Blocked multi-query sweep: raw kernel values of `num_q` queries (qs
/// walks q_stride floats per query) against candidate rows [first, first +
/// count) of `spec`, written to out[qi * out_stride + i] through the
/// *_rows_block kernel of spec.kind. Bit-exact against SweepRows per
/// (query, row) once SweepEpilogue is applied to each query's row.
void SweepBlock(const SweepSpec& spec, const float* qs, size_t q_stride,
                size_t num_q, size_t first, size_t count, float* out,
                size_t out_stride);

/// Turns raw kernel values of rows [first, first + count) into scores in
/// place: += bias[e], then negate for distances. SweepRows applies it;
/// SweepExecutor applies it to each query's row of SweepBlock output.
void SweepEpilogue(const SweepSpec& spec, size_t first, size_t count,
                   float* out);

/// The blocked sweep's shape: anchors per SweepBlock call and candidate
/// rows per tile (8 × 256 floats of output stay cache-resident while they
/// are consumed).
inline constexpr size_t kSweepQueryBlock = 8;
inline constexpr size_t kSweepTileRows = 256;

class LinkPredictor {
 public:
  virtual ~LinkPredictor() = default;

  /// Display name for reports.
  virtual const char* name() const = 0;

  virtual int32_t num_entities() const = 0;

  /// Fills out[e] with the plausibility of (anchor, r, e) when `tails`, or
  /// of (e, r, anchor) otherwise, for every entity e. out.size() must equal
  /// num_entities(). Higher = more plausible.
  virtual void ScoreCandidates(bool tails, RelationId r, EntityId anchor,
                               std::span<float> out) const = 0;

  /// Describes the kernel sweep behind ScoreCandidates(tails, r, ...).
  /// Returns false (the default) when the predictor has no kernel-shaped
  /// sweep — rule models, say — in which case SweepExecutor reads the full
  /// ScoreCandidates vectors instead.
  virtual bool DescribeSweep(bool tails, RelationId r,
                             SweepSpec* spec) const {
    (void)tails;
    (void)r;
    (void)spec;
    return false;
  }

  /// Builds the query vector for one anchor entity of the sweep described
  /// by DescribeSweep(tails, r, ...); `q` must hold spec->query_len floats.
  /// Models that return false from DescribeSweep need not override.
  virtual void BuildSweepQuery(bool tails, RelationId r, EntityId anchor,
                               std::span<float> q) const {
    (void)tails;
    (void)r;
    (void)anchor;
    (void)q;
  }
};

/// Scores a block of up to kSweepQueryBlock anchors of one (direction,
/// relation) against every candidate entity. Load describes the sweep
/// (only when the direction or relation changed since the last Load) and
/// builds the anchors' queries; Score gives one exact candidate score;
/// ForEachTile visits all scores tile by tile in ascending entity order.
///
/// With a kernel sweep the tiles come from SweepBlock + SweepEpilogue and
/// single scores from one-row SweepRows, which agree bit for bit. Without
/// one (DescribeSweep false, or kNone), Load fills each anchor's full
/// ScoreCandidates vector and both calls read from it.
///
/// Use an executor on one thread only: a description may point at
/// thread-local model storage (TransR's projected entities) that a
/// DescribeSweep of another relation on the same thread would overwrite.
class SweepExecutor {
 public:
  SweepExecutor(const LinkPredictor& predictor, size_t tile_rows);

  /// Loads 1..kSweepQueryBlock anchors of the tails (or heads) sweep of
  /// relation r.
  void Load(bool tails, RelationId r, std::span<const EntityId> anchors);

  /// True when the loaded sweep runs on the blocked kernels, false when it
  /// reads full ScoreCandidates vectors.
  bool kernel() const { return kernel_; }

  /// Exact score of candidate e for loaded anchor a.
  float Score(size_t a, EntityId e) const;

  /// Calls visit(first, count, scores, stride) for each tile of candidates
  /// [first, first + count), in ascending order: scores[a * stride + i] is
  /// loaded anchor a's score of entity first + i.
  template <typename Visit>
  void ForEachTile(Visit&& visit) {
    for (size_t first = 0; first < num_rows_; first += tile_rows_) {
      const size_t count = std::min(tile_rows_, num_rows_ - first);
      const float* scores = Tile(first, count);
      visit(first, count, scores, kernel_ ? count : num_rows_);
    }
  }

 private:
  // Scores of every loaded anchor for rows [first, first + count).
  const float* Tile(size_t first, size_t count);

  const LinkPredictor& predictor_;
  const size_t tile_rows_;
  bool described_ = false;
  bool tails_ = true;
  RelationId relation_ = 0;
  bool kernel_ = false;
  SweepSpec spec_;
  size_t num_rows_ = 0;
  size_t num_anchors_ = 0;
  std::vector<float> coef_;
  std::vector<float> v_;
  // Kernel path: the loaded anchors' queries and one tile of scores per
  // anchor. Otherwise: the anchors' full score vectors in scores_.
  std::vector<float> queries_;
  std::vector<float> scores_;
};

}  // namespace kgc

#endif  // KGC_KG_LINK_PREDICTOR_H_
