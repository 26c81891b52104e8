#include "rules/amie.h"

#include <algorithm>
#include <span>
#include <tuple>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/string_util.h"

namespace kgc {

std::string Rule::ToString(const Vocab& vocab) const {
  switch (kind) {
    case RuleBodyKind::kSame:
      return StrFormat("%s(x,y) => %s(x,y)  [supp=%zu conf=%.2f pca=%.2f]",
                       vocab.RelationName(body1).c_str(),
                       vocab.RelationName(head).c_str(), support,
                       std_confidence, pca_confidence);
    case RuleBodyKind::kInverse:
      return StrFormat("%s(y,x) => %s(x,y)  [supp=%zu conf=%.2f pca=%.2f]",
                       vocab.RelationName(body1).c_str(),
                       vocab.RelationName(head).c_str(), support,
                       std_confidence, pca_confidence);
    case RuleBodyKind::kPath:
      return StrFormat(
          "%s(x,z) ^ %s(z,y) => %s(x,y)  [supp=%zu conf=%.2f pca=%.2f]",
          vocab.RelationName(body1).c_str(),
          vocab.RelationName(body2).c_str(),
          vocab.RelationName(head).c_str(), support, std_confidence,
          pca_confidence);
  }
  return "<invalid rule>";
}

namespace {

// Mediators whose in·out combination count exceeds this are hubs: path
// enumeration skips them.
constexpr uint64_t kMaxCombosPerEntity = 20'000;

constexpr int kPairBits = 2 * kPackedEntityBits;
constexpr uint64_t kEntityMask = (uint64_t{1} << kPackedEntityBits) - 1;
constexpr uint64_t kPairMask = (uint64_t{1} << kPairBits) - 1;
constexpr uint64_t kRelationMask = (uint64_t{1} << kPackedRelationBits) - 1;

// An (x, y) entity pair in 48 bits; ascending order is PackPair order. Fits
// because TripleStore enforces the packed entity width.
uint64_t Pair48(EntityId x, EntityId y) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(x))
          << kPackedEntityBits) |
         static_cast<uint32_t>(y);
}

// Every train fact as one packed entry — its (h, t) pair in the high 48
// bits, its relation in the low 16 — sorted, so the facts on one pair form
// a contiguous run. Duplicate facts stay: a fact stored twice counts twice
// toward a rule's support.
class PairIndex {
 public:
  explicit PairIndex(const TripleStore& train) {
    entries_.reserve(train.size());
    for (const Triple& t : train.triples()) {
      entries_.push_back(Pair48(t.head, t.tail) << kPackedRelationBits |
                         static_cast<uint32_t>(t.relation));
    }
    std::sort(entries_.begin(), entries_.end());
  }

  // Calls visit(relation) once per fact on `pair`. `pos` is a forward-only
  // cursor: the pairs looked up through one cursor must not decrease (start
  // each ascending run at 0). The lower bound gallops forward from `pos`,
  // so a run of lookups costs O(log gap) each.
  template <typename Visit>
  void ForEachRelation(uint64_t pair, size_t& pos, Visit&& visit) const {
    const uint64_t lo = pair << kPackedRelationBits;
    const size_t n = entries_.size();
    size_t hi = pos;
    for (size_t step = 1; hi < n && entries_[hi] < lo; step *= 2) {
      pos = hi + 1;
      hi = std::min(n, hi + step);
    }
    pos = static_cast<size_t>(
        std::lower_bound(entries_.begin() + static_cast<ptrdiff_t>(pos),
                         entries_.begin() + static_cast<ptrdiff_t>(hi), lo) -
        entries_.begin());
    for (size_t i = pos; i < n && (entries_[i] >> kPackedRelationBits) == pair;
         ++i) {
      visit(static_cast<RelationId>(entries_[i] & kRelationMask));
    }
  }

 private:
  std::vector<uint64_t> entries_;
};

// Support per head relation, dense over relation ids; `touched_` lists the
// heads counted so far, so a reset costs only them.
class HeadCounts {
 public:
  explicit HeadCounts(int32_t num_relations)
      : counts_(static_cast<size_t>(num_relations), 0) {}

  void Add(RelationId head) {
    if (counts_[static_cast<size_t>(head)]++ == 0) touched_.push_back(head);
  }

  // Calls fn(head, support) for every counted head, then resets.
  template <typename Fn>
  void Drain(Fn&& fn) {
    for (RelationId head : touched_) {
      fn(head, counts_[static_cast<size_t>(head)]);
      counts_[static_cast<size_t>(head)] = 0;
    }
    touched_.clear();
  }

 private:
  std::vector<size_t> counts_;
  std::vector<RelationId> touched_;
};

// PCA denominator: body pairs whose x is a subject of the head relation.
// `x_of` maps each body item to its x, which must ascend along `body`, so
// one forward merge against the sorted subjects counts them.
template <typename Body, typename XOf>
size_t PcaBody(const Body& body, XOf&& x_of, EntitySetView subjects) {
  size_t pca_body = 0;
  const EntityId* s = subjects.begin();
  for (const auto& item : body) {
    const EntityId x = x_of(item);
    while (s != subjects.end() && *s < x) ++s;
    if (s == subjects.end()) break;
    if (*s == x) ++pca_body;
  }
  return pca_body;
}

// Per-thread count of the rules generating each candidate, n zeros on
// return; reused across queries so scoring does not allocate.
std::span<int> RuleCountScratch(size_t n) {
  thread_local std::vector<int> count;
  count.assign(n, 0);
  return count;
}

}  // namespace

std::vector<Rule> MineRules(const TripleStore& train,
                            const AmieOptions& options) {
  DeadlinePhase deadline_phase("mine");
  obs::TraceSpan span("mine_rules");
  span.AddArgInt("relations", train.num_relations());
  span.AddArgInt("triples", static_cast<long long>(train.size()));
  const int32_t num_relations = train.num_relations();
  const size_t num_entities = static_cast<size_t>(train.num_entities());
  const PairIndex pair_index(train);
  HeadCounts counts(num_relations);
  std::vector<Rule> rules;
  size_t num_candidates = 0;

  // A candidate is a rule whose support (> 0) passed min_support; it
  // survives if its head coverage and confidence pass too.
  auto consider = [&](RuleBodyKind kind, RelationId body1, RelationId body2,
                      RelationId head, size_t support, size_t body_size,
                      size_t pca_body) {
    ++num_candidates;
    Rule rule;
    rule.kind = kind;
    rule.body1 = body1;
    rule.body2 = body2;
    rule.head = head;
    rule.support = support;
    rule.body_size = body_size;
    const double s = static_cast<double>(support);
    rule.std_confidence = s / static_cast<double>(body_size);
    rule.pca_confidence =
        pca_body > 0 ? s / static_cast<double>(pca_body) : 0.0;
    rule.head_coverage = s / static_cast<double>(train.RelationSize(head));
    const double confidence = options.use_pca_confidence
                                  ? rule.pca_confidence
                                  : rule.std_confidence;
    if (rule.head_coverage >= options.min_head_coverage &&
        confidence >= options.min_confidence) {
      rules.push_back(rule);
    }
  };

  // --- Unary rules: r1(x,y) => rh(x,y) and r1(y,x) => rh(x,y). ------------
  // For each body relation count, through the pair index, the facts on each
  // of its distinct pairs (same) and reversed pairs (inverse). Body pairs
  // ascend, and so do the reversed pairs within each run of equal x.
  HeadCounts inverse_counts(num_relations);
  std::vector<EntityId> objects;
  for (RelationId body = 0; body < num_relations; ++body) {
    const PairSetView body_pairs = train.Pairs(body);
    if (body_pairs.size() < options.min_support) continue;
    size_t same_pos = 0;
    size_t inverse_pos = 0;
    EntityId run_x = -1;
    for (uint64_t key : body_pairs) {
      const auto [x, y] = UnpackPair(key);
      if (x != run_x) {
        run_x = x;
        inverse_pos = 0;
      }
      pair_index.ForEachRelation(Pair48(x, y), same_pos,
                                 [&](RelationId rh) { counts.Add(rh); });
      pair_index.ForEachRelation(Pair48(y, x), inverse_pos, [&](RelationId rh) {
        inverse_counts.Add(rh);
      });
    }
    counts.Drain([&](RelationId head, size_t support) {
      // head == body is the tautology r(x,y) => r(x,y).
      if (head == body || support < options.min_support) return;
      consider(RuleBodyKind::kSame, body, -1, head, support, body_pairs.size(),
               PcaBody(body_pairs,
                       [](uint64_t key) { return UnpackPair(key).first; },
                       train.Subjects(head)));
    });
    // The inverse rule's x is the body pair's object: sorted once, on the
    // first candidate.
    objects.clear();
    inverse_counts.Drain([&](RelationId head, size_t support) {
      if (support < options.min_support) return;
      if (objects.empty()) {
        for (uint64_t key : body_pairs) {
          objects.push_back(UnpackPair(key).second);
        }
        std::sort(objects.begin(), objects.end());
      }
      consider(RuleBodyKind::kInverse, body, -1, head, support,
               body_pairs.size(),
               PcaBody(objects, [](EntityId x) { return x; },
                       train.Subjects(head)));
    });
  }
  // Candidate rounds are the miner's deadline boundaries. Rules are mined
  // from the training split alone, so a retry simply re-mines.
  PhaseBoundary("mine_unary_candidates");

  // --- Path rules: r1(x,z) ^ r2(z,y) => rh(x,y). --------------------------
  // Out-adjacency CSR: entity z's out-edges are out_edges[out_offsets[z] ..
  // out_offsets[z+1]), each packed as r2 << 48 | y (a path key without its
  // x). Duplicate facts stay, as they do in the degrees.
  std::vector<uint32_t> out_offsets(num_entities + 1, 0);
  std::vector<uint32_t> in_degree(num_entities, 0);
  for (const Triple& t : train.triples()) {
    ++out_offsets[static_cast<size_t>(t.head) + 1];
    ++in_degree[static_cast<size_t>(t.tail)];
  }
  for (size_t z = 0; z < num_entities; ++z) {
    out_offsets[z + 1] += out_offsets[z];
  }
  std::vector<uint64_t> out_edges(train.size());
  {
    std::vector<uint32_t> fill(out_offsets.begin(), out_offsets.end() - 1);
    for (const Triple& t : train.triples()) {
      out_edges[fill[static_cast<size_t>(t.head)]++] =
          static_cast<uint64_t>(t.relation) << kPairBits |
          static_cast<uint32_t>(t.tail);
    }
  }

  // Eligible mediators, a pure function of the degrees: walk ascending,
  // skip hubs, and stop admitting once the admitted in·out combinations
  // exceed max_path_combinations.
  std::vector<uint8_t> eligible(num_entities, 0);
  uint64_t admitted_combos = 0;
  size_t hub_mediators = 0;
  size_t budget_cut_mediators = 0;
  for (size_t z = 0; z < num_entities; ++z) {
    const uint64_t combos = uint64_t{in_degree[z]} *
                            uint64_t{out_offsets[z + 1] - out_offsets[z]};
    if (combos == 0) continue;
    if (combos > kMaxCombosPerEntity) {
      ++hub_mediators;
    } else if (admitted_combos > options.max_path_combinations) {
      ++budget_cut_mediators;
    } else {
      eligible[z] = 1;
      admitted_combos += combos;
    }
  }

  // Per r1: emit r2 << 48 | x << 24 | y for every combination through an
  // eligible mediator, then sort and de-duplicate. Each r2 run is that
  // body's sorted, distinct pair set; its pairs ascend, so one pair-index
  // cursor serves the run. Only one r1's keys are live at a time.
  std::vector<uint64_t> keys;
  size_t path_pairs = 0;
  for (RelationId r1 = 0; r1 < num_relations; ++r1) {
    const std::span<const Triple> facts = train.ByRelation(r1);
    size_t combos = 0;
    for (const Triple& f : facts) {
      const size_t z = static_cast<size_t>(f.tail);
      if (eligible[z]) combos += out_offsets[z + 1] - out_offsets[z];
    }
    if (combos == 0) continue;
    keys.clear();
    keys.reserve(combos);
    for (const Triple& f : facts) {
      const size_t z = static_cast<size_t>(f.tail);
      if (!eligible[z]) continue;
      const uint64_t x = static_cast<uint64_t>(f.head) << kPackedEntityBits;
      for (uint32_t e = out_offsets[z]; e < out_offsets[z + 1]; ++e) {
        keys.push_back(out_edges[e] | x);
      }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    for (size_t begin = 0; begin < keys.size();) {
      const uint64_t r2 = keys[begin] >> kPairBits;
      size_t end = begin;
      size_t pos = 0;
      for (; end < keys.size() && keys[end] >> kPairBits == r2; ++end) {
        pair_index.ForEachRelation(keys[end] & kPairMask, pos,
                                   [&](RelationId rh) { counts.Add(rh); });
      }
      const std::span<const uint64_t> body(keys.data() + begin, end - begin);
      path_pairs += body.size();
      counts.Drain([&](RelationId head, size_t support) {
        if (support < options.min_support) return;
        consider(RuleBodyKind::kPath, r1, static_cast<RelationId>(r2), head,
                 support, body.size(),
                 PcaBody(
                     body,
                     [](uint64_t key) {
                       return static_cast<EntityId>(key >> kPackedEntityBits &
                                                    kEntityMask);
                     },
                     train.Subjects(head)));
      });
      begin = end;
    }
  }
  PhaseBoundary("mine_path_candidates");

  // Every count above is a pure function of the store and the options, so
  // all five counters are thread-count invariant.
  static obs::Counter& candidates_counter =
      obs::Registry::Get().GetCounter(obs::kAmieCandidates);
  static obs::Counter& kept_counter =
      obs::Registry::Get().GetCounter(obs::kAmieRulesKept);
  static obs::Counter& path_pairs_counter =
      obs::Registry::Get().GetCounter(obs::kAmiePathPairs);
  static obs::Counter& hub_counter =
      obs::Registry::Get().GetCounter(obs::kAmieHubMediators);
  static obs::Counter& cut_counter =
      obs::Registry::Get().GetCounter(obs::kAmieBudgetCutMediators);
  candidates_counter.Add(num_candidates);
  kept_counter.Add(rules.size());
  path_pairs_counter.Add(path_pairs);
  hub_counter.Add(hub_mediators);
  cut_counter.Add(budget_cut_mediators);

  std::sort(rules.begin(), rules.end(), [&](const Rule& a, const Rule& b) {
    const double ca = options.use_pca_confidence ? a.pca_confidence
                                                 : a.std_confidence;
    const double cb = options.use_pca_confidence ? b.pca_confidence
                                                 : b.std_confidence;
    if (ca != cb) return ca > cb;
    if (a.support != b.support) return a.support > b.support;
    return std::tuple(static_cast<int>(a.kind), a.body1, a.body2, a.head) <
           std::tuple(static_cast<int>(b.kind), b.body1, b.body2, b.head);
  });
  return rules;
}

RulePredictor::RulePredictor(std::vector<Rule> rules,
                             const TripleStore& train,
                             const AmieOptions& options)
    : rules_(std::move(rules)),
      train_(train),
      options_(options),
      by_head_(static_cast<size_t>(train.num_relations())) {
  for (const Rule& rule : rules_) {
    KGC_CHECK_GE(rule.head, 0);
    KGC_CHECK_LT(rule.head, train.num_relations());
    by_head_[static_cast<size_t>(rule.head)].push_back(&rule);
  }
  for (auto& bucket : by_head_) {
    std::sort(bucket.begin(), bucket.end(),
              [this](const Rule* a, const Rule* b) {
                return Confidence(*a) > Confidence(*b);
              });
  }
}

const std::vector<const Rule*>& RulePredictor::RulesForHead(
    RelationId r) const {
  static const std::vector<const Rule*>* empty =
      new std::vector<const Rule*>();
  if (r < 0 || static_cast<size_t>(r) >= by_head_.size()) return *empty;
  return by_head_[static_cast<size_t>(r)];
}

void RulePredictor::ScoreCandidates(bool tails, RelationId r,
                                    EntityId anchor,
                                    std::span<float> out) const {
  // `out` accumulates each candidate's best confidence.
  std::fill(out.begin(), out.end(), 0.0f);
  const std::span<int> count = RuleCountScratch(out.size());
  auto credit = [&](EntityId e, double confidence) {
    const size_t k = static_cast<size_t>(e);
    out[k] = std::max(out[k], static_cast<float>(confidence));
    count[k] = std::min(count[k] + 1, 1000);
  };
  for (const Rule* rule : RulesForHead(r)) {
    const double confidence = Confidence(*rule);
    switch (rule->kind) {
      case RuleBodyKind::kSame:
        for (EntityId e : train_.Adjacent(tails, rule->body1, anchor)) {
          credit(e, confidence);
        }
        break;
      case RuleBodyKind::kInverse:
        for (EntityId e : train_.Adjacent(!tails, rule->body1, anchor)) {
          credit(e, confidence);
        }
        break;
      case RuleBodyKind::kPath: {
        // x -body1-> z -body2-> y, walked from whichever end is the anchor.
        const RelationId near = tails ? rule->body1 : rule->body2;
        const RelationId far = tails ? rule->body2 : rule->body1;
        for (EntityId z : train_.Adjacent(tails, near, anchor)) {
          for (EntityId e : train_.Adjacent(tails, far, z)) {
            credit(e, confidence);
          }
        }
        break;
      }
    }
  }
  for (size_t k = 0; k < out.size(); ++k) {
    // Max confidence, ties broken by the number of generating rules.
    out[k] += static_cast<float>(count[k]) * 1e-6f;
  }
}

}  // namespace kgc
