// Algorithms 1 & 2 of the paper: divide-and-conquer service-value evaluation
// over the TQ-tree, with the two-phase pruning (q-node pruning + zReduce).
#ifndef TQCOVER_QUERY_EVAL_SERVICE_H_
#define TQCOVER_QUERY_EVAL_SERVICE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/dynamic_bitset.h"
#include "query/query_stats.h"
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

/// Same traversal, but collects each served user's ServeDetail mask instead
/// of a value (the per-facility served sets that MaxkCovRST consumes).
void CollectServedTQ(TQTree* tree, const ServiceEvaluator& eval,
                     const StopGrid& grid,
                     std::unordered_map<uint32_t, DynamicBitset>* out,
                     QueryStats* stats = nullptr);

}  // namespace tq

#endif  // TQCOVER_QUERY_EVAL_SERVICE_H_
