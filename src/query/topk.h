// Algorithms 3 & 4 of the paper: best-first top-k facility search
// (TopKFacilities / relaxState) over the TQ-tree, plus an exhaustive variant
// the tests cross-check it against. (The MaxkCovRST candidate pool,
// GreedyCoverTQ, is built with the best-first search.)
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

/// kMaxRRST via the paper's best-first strategy: one exploration state per
/// facility, keyed by fserve = aserve + hserve; the state with the largest
/// upper bound is relaxed one tree level at a time (Algorithm 4) until k
/// facilities complete (Algorithm 3).
TopKResult TopKFacilitiesTQ(TQTree* tree, const FacilityCatalog& catalog,
                            const ServiceEvaluator& eval, size_t k);

/// kMaxRRST by exhaustively evaluating SO(U, f) for every facility with
/// Algorithm 1, then sorting. Same answers as the best-first search; the
/// tests' cross-check for it.
TopKResult TopKFacilitiesExhaustiveTQ(TQTree* tree,
                                      const FacilityCatalog& catalog,
                                      const ServiceEvaluator& eval, size_t k);

}  // namespace tq

#endif  // TQCOVER_QUERY_TOPK_H_
