// kMaxRRST over the TQ-tree: the paper's best-first top-k facility search
// (Algorithm 3), keyed by a cheap cell bound instead of Algorithm 4's
// per-level relaxation, plus an exhaustive variant the tests cross-check it
// against. (The MaxkCovRST candidate pool, GreedyCoverTQ, is built with the
// best-first search.)
#ifndef TQCOVER_QUERY_TOPK_H_
#define TQCOVER_QUERY_TOPK_H_

#include <vector>

#include "query/eval_service.h"
#include "service/facility_index.h"

namespace tq {

/// One ranked answer.
struct RankedFacility {
  FacilityId id = 0;
  double value = 0.0;
};

/// THE ranking order of every kMaxRRST surface (exhaustive sort, best-first
/// completion, sharded gather merge): value descending, exact ties broken by
/// ascending facility id for determinism.
inline bool RankedBefore(const RankedFacility& a, const RankedFacility& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.id < b.id;
}

/// Result of a kMaxRRST query: `ranked` holds k facilities in descending
/// service-value order (ties broken by facility id for determinism).
struct TopKResult {
  std::vector<RankedFacility> ranked;
  QueryStats stats;
};

/// kMaxRRST via the paper's best-first strategy (Algorithm 3): one max-heap
/// over facilities, each keyed by the tree's CellIndex::CellUpperBound. A
/// popped bound is replaced by the facility's exact EvaluateServiceTQ value —
/// with tables, summed over the candidate ids the bound pass listed. A popped
/// exact value is final, since every key left in the heap bounds its
/// facility's value from above. Ties pop by ascending id, bounds and exact
/// values alike, so the answer is the exhaustive ranking's first k, ids and
/// value bits included. `stats.relax_rounds` counts the exact refinements.
TopKResult TopKFacilitiesTQ(TQTree* tree, const FacilityCatalog& catalog,
                            const ServiceEvaluator& eval, size_t k);

/// kMaxRRST by exhaustively evaluating SO(U, f) for every facility with
/// EvaluateServiceTQ, then sorting. Same answers as the best-first search; the
/// tests' cross-check for it.
TopKResult TopKFacilitiesExhaustiveTQ(TQTree* tree,
                                      const FacilityCatalog& catalog,
                                      const ServiceEvaluator& eval, size_t k);

}  // namespace tq

#endif  // TQCOVER_QUERY_TOPK_H_
