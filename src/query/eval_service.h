// Algorithms 1 & 2 of the paper: divide-and-conquer service-value evaluation
// over the TQ-tree, with the two-phase pruning (q-node pruning + zReduce).
#ifndef TQCOVER_QUERY_EVAL_SERVICE_H_
#define TQCOVER_QUERY_EVAL_SERVICE_H_

#include <cstdint>
#include <vector>

#include "query/query_stats.h"
#include "query/served_gather.h"
#include "service/accumulator.h"
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

/// The point-cell candidate filter for the facility behind `grid`
/// (TQTree::MarkCandidates, in its `any_endpoint` form if asked): a
/// thread-local bitmap over `tree`'s trajectory ids, valid until the next
/// call on this thread, or null when the tree has no point-cell tables and
/// every unit is a candidate.
const uint64_t* CandidateMask(const TQTree& tree, const StopGrid& grid,
                              bool any_endpoint = false);

/// Algorithm 1 (evaluateService): SO(U, f) by recursive division of the
/// facility over the TQ-tree, starting from the root.
double EvaluateServiceTQ(TQTree* tree, const ServiceEvaluator& eval,
                         const StopGrid& grid, QueryStats* stats = nullptr);

/// Lemma 1: a user whose source alone is served still matters for combined
/// coverage, so on kStartEnd trees under Scenario 1 served-set collection
/// weakens the both-endpoints filters (zReduce's z-cells and the candidate
/// mask) to either-endpoint. True when that applies.
bool AnyEndpointCollection(const TQTree& tree, const ServiceEvaluator& eval);

/// Same traversal, but gathers each served user's ServeDetail mask into
/// `out` (reset first) instead of a value: the per-facility served sets
/// MaxkCovRST consumes. A non-null `pool` — a MarkCandidates bitmap of this
/// tree — further restricts the exact checks to the users whose bit it has
/// set.
void CollectServedTQ(TQTree* tree, const ServiceEvaluator& eval,
                     const StopGrid& grid, ServedGather* out,
                     const uint64_t* pool = nullptr,
                     QueryStats* stats = nullptr);

}  // namespace tq

#endif  // TQCOVER_QUERY_EVAL_SERVICE_H_
