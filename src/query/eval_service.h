// Service-value evaluation. Whole trajectories are evaluated from a cell
// index (a whole tree's own, or a serving shard's): one candidate mask and
// one exact check per set bit, summed in ascending id order. Algorithms 1 &
// 2 of the paper — divide-and-conquer over the quadtree with q-node pruning
// and zReduce — serve segmented trees, whose walk gathers served masks that
// are summed in the same ascending id order.
#ifndef TQCOVER_QUERY_EVAL_SERVICE_H_
#define TQCOVER_QUERY_EVAL_SERVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "query/query_stats.h"
#include "query/served_gather.h"
#include "service/evaluator.h"
#include "service/stop_grid.h"
#include "tqtree/tq_tree.h"

namespace tq {

/// A facility component: indices of the facility's stop points that are
/// relevant to the current subspace (the paper's f, f_c after division).
using Component = std::vector<uint32_t>;

/// Component containing every stop of the facility.
Component FullComponent(const StopGrid& grid);

/// The paper's intersectingComponents: stops of `comp` whose ψ-disk
/// intersects `rect` (i.e. that can serve some point inside `rect`).
Component ClipComponent(const StopGrid& grid, const Component& comp,
                        const Rect& rect);

/// EMBR of the component: MBR of its stops expanded by ψ (§IV-A).
Rect ComponentEmbr(const StopGrid& grid, const Component& comp);

/// Materialises the component's stop coordinates (the corridor zReduce
/// covers cells against).
std::vector<Point> ComponentStops(const StopGrid& grid,
                                  const Component& comp);

/// SO(U, f) over the trajectories `cells` (which must have tables) indexes:
/// Σ ServiceEvaluator::Evaluate over the candidate mask's ids in ascending
/// order, whatever the index's update history — EvaluateServiceBaseline's
/// bits. `stats->exact_checks` counts the set bits. Thread-safe once frozen.
double EvaluateServiceCells(const CellIndex& cells,
                            const ServiceEvaluator& eval, const StopGrid& grid,
                            QueryStats* stats = nullptr);

/// SO(U, f). On a whole-trajectory tree: EvaluateServiceCells over its cell
/// index. On a segmented tree: Algorithm 1 (evaluateService) gathers each
/// served point or segment once (CollectServedTQ; one exact check per walked
/// unit), then Σ ServiceEvaluator::ValueOfMask over the gathered users in
/// ascending id (ServedGather::SumAscending) — the same bits again.
double EvaluateServiceTQ(TQTree* tree, const ServiceEvaluator& eval,
                         const StopGrid& grid, QueryStats* stats = nullptr);

/// Σ ServiceEvaluator::Evaluate over `ids` in the given order: with the
/// ascending ids of a whole tree's candidate set (CellIndex::CellUpperBound
/// lists them), the bits EvaluateServiceTQ returns.
double EvaluateServiceOver(std::span<const uint32_t> ids,
                           const ServiceEvaluator& eval, const StopGrid& grid,
                           QueryStats* stats = nullptr);

/// Lemma 1: a user whose source alone is served still matters for combined
/// coverage, so on kStartEnd trees under Scenario 1 served-set collection
/// weakens the both-endpoints candidate mask to either-endpoint. True when
/// that applies.
bool AnyEndpointCollection(const TQTree& tree, const ServiceEvaluator& eval);

/// Same candidates, but gathers each served user's ServeDetail mask into
/// `out` (reset first) instead of a value: the per-facility served sets
/// MaxkCovRST consumes. A non-null `pool` — a MarkCandidates bitmap of the
/// tree's cell index — further restricts the exact checks to the users
/// whose bit it has set. Whole-trajectory trees gather in ascending id order.
void CollectServedTQ(TQTree* tree, const ServiceEvaluator& eval,
                     const StopGrid& grid, ServedGather* out,
                     const uint64_t* pool = nullptr,
                     QueryStats* stats = nullptr);

}  // namespace tq

#endif  // TQCOVER_QUERY_EVAL_SERVICE_H_
