// Greedy MaxkCovRST solvers (§V-A).
//
// The objective is non-submodular (Lemma 1), so no greedy carries Feige's
// (1−1/e) guarantee — these are the paper's practical heuristics:
//   * GreedyCover         — k rounds of exact marginal-gain maximisation over
//                           supplied served sets (no lazy evaluation: lazy
//                           greedy needs diminishing returns, which Lemma 1
//                           explicitly breaks). The reference every other
//                           greedy is tested against.
//   * GreedyCoverBaseline — G-BL: the straightforward greedy with served sets
//                           collected through the baseline point quadtree.
//   * GreedyCoverTQ       — G-TQ(B)/G-TQ(Z): the paper's two-step greedy —
//                           step 1 pools the k′ top-serving facilities via
//                           kMaxRRST, step 2 runs greedy inside the pool.
//                           Under Scenario 1 on a whole tree (where
//                           AnyEndpointCollection holds) step 2 runs on
//                           two bitmaps per pooled facility (served sources,
//                           served destinations) and a gain is a popcount;
//                           otherwise it is GreedyCover over served sets.
#ifndef TQCOVER_COVER_GREEDY_H_
#define TQCOVER_COVER_GREEDY_H_

#include <vector>

#include "cover/coverage_state.h"
#include "cover/served_sets.h"
#include "quadtree/point_quadtree.h"
#include "query/query_stats.h"

namespace tq {

/// Result of any MaxkCovRST solver.
struct CoverResult {
  std::vector<FacilityId> chosen;
  double total = 0.0;         // SO(U, chosen)
  size_t users_served = 0;    // users with positive service value
  size_t pool_size = 0;       // candidate pool actually considered
  /// GreedyCoverTQ's work: the pool top-k's counters plus the served-set
  /// collection's exact_checks and points_probed.
  QueryStats stats;
};

/// Two-step pool sizing: k′ = min(|F|, max(4k, 2k+8)). The paper requires
/// only k′ ≥ k; this default keeps the pool comfortably larger than k.
size_t DefaultPoolSize(size_t k, size_t num_facilities);

/// Greedy over explicit served sets.
CoverResult GreedyCover(const std::vector<FacilityServedSet>& sets, size_t k,
                        const ServiceEvaluator& eval);

/// G-BL: straightforward greedy over every facility, baseline evaluation.
CoverResult GreedyCoverBaseline(const PointQuadtree& index,
                                const FacilityCatalog& catalog,
                                const ServiceEvaluator& eval, size_t k);

/// G-TQ: two-step greedy over the TQ-tree (basic or z-order, per the tree).
/// `pool_size` 0 selects DefaultPoolSize. The answer — chosen ids in order,
/// total and users served — equals GreedyCover's over the pool's served
/// sets, bit for bit, on every path.
CoverResult GreedyCoverTQ(TQTree* tree, const FacilityCatalog& catalog,
                          const ServiceEvaluator& eval, size_t k,
                          size_t pool_size = 0);

}  // namespace tq

#endif  // TQCOVER_COVER_GREEDY_H_
