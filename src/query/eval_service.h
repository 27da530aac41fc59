// Service-value evaluation. Whole trajectories are evaluated from a cell
// index (a whole tree's own, or a serving shard's): one candidate mask and
// one exact value per set bit, summed in ascending id order. Under
// Scenario 2 the values come from the points the cell table lists near the
// route (the point path), not from every point of every candidate.
// Algorithms 1 & 2 of the paper — divide-and-conquer over the quadtree with
// q-node pruning and zReduce — serve segmented trees, whose walk gathers
// served masks that are summed in the same ascending id order.
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
/// bits. Scenarios 1 and 3 evaluate each candidate in full. Scenario 2 takes
/// the point path (CellIndex::CountServedPoints): the serve predicate runs
/// over the points the all-points table lists in the cells near the stops,
/// one contiguous run per cell, counting served points per owner; pending
/// ids are evaluated in full; and Σ ServiceEvaluator::ValueOfCount over the
/// candidates with a non-zero count (a zero count adds +0.0, which cannot
/// change the sum) gives the same bits. `stats->exact_checks` counts the
/// candidates (the set bits of CellIndex::MarkCandidates) on both paths, and
/// `stats->points_probed` the user points passed to the serve predicate.
/// Thread-safe once frozen.
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
/// lists them), the bits EvaluateServiceTQ returns. Every point of every id
/// is probed (Scenario 1: both endpoints).
double EvaluateServiceOver(std::span<const uint32_t> ids,
                           const ServiceEvaluator& eval, const StopGrid& grid,
                           QueryStats* stats = nullptr);

/// Lemma 1: a user whose source alone is served still matters for combined
/// coverage, so on kStartEnd trees under Scenario 1 served-set collection
/// reads the per-endpoint masks of CellIndex::MarkEndpointCandidates
/// instead of the both-endpoints candidate mask (CollectServedEndpoints).
/// True when that applies; it implies a whole-trajectory tree.
bool AnyEndpointCollection(const TQTree& tree, const ServiceEvaluator& eval);

/// The Scenario 1 served endpoints of the facility behind `grid`, where
/// AnyEndpointCollection holds. Walks, in ascending id, the users with a
/// source or a destination bit of CellIndex::MarkEndpointCandidates (ANDed
/// with `pool` when non-null) and probes each endpoint only where its own
/// bit is set. Replaces `sources` with the ids whose source `grid` serves
/// and `destinations` with those whose destination it serves, both
/// ascending; a one-point user's one point is both. `stats->exact_checks`
/// counts the users walked, `stats->points_probed` the endpoints probed.
void CollectServedEndpoints(const TQTree& tree, const StopGrid& grid,
                            const uint64_t* pool,
                            std::vector<uint32_t>* sources,
                            std::vector<uint32_t>* destinations,
                            QueryStats* stats = nullptr);

/// Gathers each served user's ServeDetail mask into `out` (reset first)
/// instead of a value: the per-facility served sets MaxkCovRST consumes.
/// Whole-trajectory trees gather in ascending id order, over the
/// MarkCandidates set — or, where AnyEndpointCollection holds, from
/// CollectServedEndpoints (its source and destination bits). Segmented
/// trees gather from the Algorithm 1 walk. `stats->exact_checks` counts
/// the users (whole) or entries (segmented) checked, and
/// `stats->points_probed` the user points passed to the serve predicate.
void CollectServedTQ(TQTree* tree, const ServiceEvaluator& eval,
                     const StopGrid& grid, ServedGather* out,
                     QueryStats* stats = nullptr);

}  // namespace tq

#endif  // TQCOVER_QUERY_EVAL_SERVICE_H_
